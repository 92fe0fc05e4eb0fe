//go:build racecheck

package btree

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
)

// TestStaleSnapshotReadPanics is the reader-side assertion of the racecheck
// build on both point-read paths: a snapshot used after its Release, once the
// writer has copied every page it reached and the version set has reclaimed
// the originals, panics on the first freed page — through GetBatch with the
// message Get gives, because both fetch every node through Snapshot.page.
func TestStaleSnapshotReadPanics(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Acquire()
	snap.Release() // and keep using it: the bug under test
	for round := 0; round < 4; round++ {
		for k := uint64(0); k < 2000; k++ {
			tr.Update(k, k+1)
		}
		if err := tr.Publish(); err != nil {
			t.Fatal(err)
		}
	}

	var m rum.Meter
	caught := func(read func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		read()
		return "no panic"
	}
	one := caught(func() { snap.Get(7, &m) })
	if !strings.Contains(one, "freed or reused under a live PageView") {
		t.Fatalf("Get on a reclaimed snapshot: %s", one)
	}
	keys := []core.Key{7, 900, 1999}
	group := caught(func() { snap.GetBatch(keys, make([]core.Value, 3), make([]bool, 3), &m) })
	if group != one {
		t.Fatalf("GetBatch on a reclaimed snapshot: %s; Get: %s", group, one)
	}
}
