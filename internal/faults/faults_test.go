package faults

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/storage"
)

func TestParsePlanRoundTrip(t *testing.T) {
	plans := []Plan{
		{Seed: 42},
		{Seed: 1, PRead: 0.01, PWrite: 0.02, PTorn: 0.5},
		{Seed: 7, ReadFailAt: []uint64{3, 9}, WriteFailAt: []uint64{5}},
		{Seed: 99, CrashAtWrite: 200},
		{Seed: 3, PRead: 0.125, ReadFailAt: []uint64{1}, CrashAtWrite: 17},
		{Seed: 11, WriteFailAt: []uint64{2, 8}, CrashAtWrite: 31},
		{Seed: 13, ReadFailAt: []uint64{4}, WriteFailAt: []uint64{6, 10}, CrashAtWrite: 150},
	}
	for _, p := range plans {
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q: got %+v want %+v", p.String(), q, p)
		}
	}
}

// TestParsePlanCrashWithSchedules is the regression test for the round-trip
// gap: a crash point combined with permanent fail-at schedules (especially
// write schedules, which share the write path with the crash counter) must
// encode and parse back field-for-field.
func TestParsePlanCrashWithSchedules(t *testing.T) {
	p := Plan{
		Seed:         5,
		PWrite:       0.25,
		PTorn:        1,
		ReadFailAt:   []uint64{7, 19},
		WriteFailAt:  []uint64{3, 12, 40},
		CrashAtWrite: 64,
	}
	s := p.String()
	q, err := ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip of %q: got %+v want %+v", s, q, p)
	}
	// And the re-encoding is stable: String is a canonical form.
	if s2 := q.String(); s2 != s {
		t.Fatalf("re-encode drifted: %q then %q", s, s2)
	}
}

func TestParsePlanEmpty(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() {
		t.Fatalf("empty spec is active: %+v", p)
	}
}

func TestParsePlanSortsSchedules(t *testing.T) {
	p, err := ParsePlan("seed=1,read_fail_at=9;3;5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.ReadFailAt, []uint64{3, 5, 9}) {
		t.Fatalf("schedule not sorted: %v", p.ReadFailAt)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"seed",              // not key=value
		"bogus=1",           // unknown key
		"p_read=1.5",        // probability out of range
		"p_write=-0.1",      // probability out of range
		"seed=x",            // not a number
		"crash=-1",          // not a uint
		"read_fail_at=1;x",  // bad list element
		"seed=1,,p_read=.1", // empty field
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{Seed: 5}).Active() {
		t.Fatal("seed-only plan is active")
	}
	for _, p := range []Plan{
		{PRead: 0.1}, {PWrite: 0.1}, {CrashAtWrite: 1},
		{ReadFailAt: []uint64{1}}, {WriteFailAt: []uint64{1}},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v not active", p)
		}
	}
}

// driveInjector records the outcome of a fixed op sequence as strings.
func driveInjector(in *Injector, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		id := storage.PageID(i % 7)
		if i%3 == 0 {
			torn, err := in.WriteFault(id, 512)
			out = append(out, fmt.Sprintf("w%d:%d:%v", i, torn, err))
		} else {
			out = append(out, fmt.Sprintf("r%d:%v", i, in.ReadFault(id)))
		}
	}
	return out
}

// TestInjectorDeterminism: identical plans produce identical fault streams
// over an identical operation history.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 11, PRead: 0.3, PWrite: 0.3, PTorn: 0.5, CrashAtWrite: 40}
	a := driveInjector(New(plan), 200)
	b := driveInjector(New(plan), 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical plans diverged")
	}
	if reflect.DeepEqual(a, driveInjector(New(Plan{Seed: 12, PRead: 0.3, PWrite: 0.3, PTorn: 0.5, CrashAtWrite: 40}), 200)) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSalted(t *testing.T) {
	p := Plan{Seed: 1, PRead: 0.5, ReadFailAt: []uint64{2, 4}}
	a, b := p.Salted("cell-a"), p.Salted("cell-b")
	if a.Seed == b.Seed || a.Seed == p.Seed {
		t.Fatalf("salting did not re-key: %d %d %d", p.Seed, a.Seed, b.Seed)
	}
	if a.PRead != p.PRead || !reflect.DeepEqual(a.ReadFailAt, p.ReadFailAt) {
		t.Fatalf("salting changed the schedule: %+v", a)
	}
	// Salted must deep-copy the schedules: mutating the copy cannot alias.
	a.ReadFailAt[0] = 99
	if p.ReadFailAt[0] != 2 {
		t.Fatal("Salted aliased the schedule slice")
	}
	// And it must be a pure function of (seed, label).
	if p.Salted("cell-a").Seed != a.Seed {
		t.Fatal("Salted is not deterministic")
	}
}

func TestReadFailAtMarksPageBad(t *testing.T) {
	in := New(Plan{ReadFailAt: []uint64{2}})
	if err := in.ReadFault(5); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if err := in.ReadFault(7); !errors.Is(err, storage.ErrInjected) || errors.Is(err, storage.ErrTransient) {
		t.Fatalf("read 2 should fail permanently: %v", err)
	}
	// Page 7 is now bad for reads and writes; page 5 is untouched.
	if err := in.ReadFault(7); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("bad page read: %v", err)
	}
	if _, err := in.WriteFault(7, 512); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("bad page write: %v", err)
	}
	if err := in.ReadFault(5); err != nil {
		t.Fatalf("good page read: %v", err)
	}
	st := in.Stats()
	if st != (Stats{PermanentReads: 2, PermanentWrites: 1}) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCrashAtWriteFiresOnce(t *testing.T) {
	in := New(Plan{CrashAtWrite: 2})
	if _, err := in.WriteFault(1, 512); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	torn, err := in.WriteFault(1, 512)
	if !errors.Is(err, storage.ErrCrash) {
		t.Fatalf("write 2: %v", err)
	}
	if torn != 0 {
		t.Fatalf("crash write torn=%d, must be clean", torn)
	}
	// The crash point is one-shot: recovery-time writes pass.
	if _, err := in.WriteFault(1, 512); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	if st := in.Stats(); st.Crashes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTornBounds(t *testing.T) {
	in := New(Plan{Seed: 9, PWrite: 1, PTorn: 1})
	for i := 0; i < 100; i++ {
		torn, err := in.WriteFault(storage.PageID(i), 64)
		if !errors.Is(err, storage.ErrTransient) {
			t.Fatalf("write %d: %v", i, err)
		}
		if torn < 1 || torn >= 64 {
			t.Fatalf("torn %d outside [1,63]", torn)
		}
	}
	if st := in.Stats(); st.Torn != 100 || st.TransientWrites != 100 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDurabilityVerdictStrings(t *testing.T) {
	if Lossy.String() != "lossy" || DurableToFlush.String() != "durable-to-flush" ||
		DurableToCommit.String() != "durable-to-commit" {
		t.Fatal("durability names")
	}
	names := map[Verdict]string{
		NoCrash: "no-crash", Recovered: "recovered", FailedLoudly: "failed-loudly",
		NoRecovery: "no-recovery", Violated: "VIOLATED",
	}
	for v, want := range names {
		if v.String() != want {
			t.Fatalf("%d.String() = %q want %q", v, v.String(), want)
		}
	}
}

// TestCheckResultString: survival is printed only when a structure was
// reopened and judged; no-recovery and failed-loudly lines have none to show.
func TestCheckResultString(t *testing.T) {
	for _, tc := range []struct {
		r    CheckResult
		want string
	}{
		{CheckResult{Verdict: Recovered, CrashWrite: 87, Acked: 120, Keys: 64, Checkpointed: 100, Survived: 61},
			"recovered (crash@w87, acked 120, checkpointed 100, survived 61/64)"},
		{CheckResult{Verdict: Violated, CrashWrite: 87, Acked: 120, Keys: 64, Committed: 119, Checkpointed: 100, Survived: 60, Detail: "1 violations"},
			"VIOLATED (crash@w87, acked 120, committed 119, checkpointed 100, survived 60/64): 1 violations"},
		{CheckResult{Verdict: NoRecovery, CrashWrite: 102, Acked: 316, Keys: 170, Checkpointed: 300},
			"no-recovery (crash@w102, acked 316, checkpointed 300)"},
		{CheckResult{Verdict: FailedLoudly, CrashWrite: 42, Acked: 253, Keys: 140, Checkpointed: 200, Detail: "btree: no root"},
			"failed-loudly (crash@w42, acked 253, checkpointed 200): btree: no root"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Fatalf("got %q want %q", got, tc.want)
		}
	}
}

// FuzzParsePlan: any string ParsePlan accepts reaches the same plan through
// String and back, and no input panics.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{"", "seed=7", "seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=150",
		"read_fail_at=9;3;3,write_fail_at=1", "p_read=NaN", "p_write=1e-400", "crash=0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		p2, err := ParsePlan(p.String())
		if err != nil || !reflect.DeepEqual(p2, p) {
			t.Fatalf("ParsePlan(%q) = %+v; its String %q parses to %+v, %v", s, p, p.String(), p2, err)
		}
	})
}
