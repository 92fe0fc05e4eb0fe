package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Key-popularity distributions for generated client streams. The default
// chooser is uniform over the client's live keys — exactly one rng.IntN
// draw, byte-identical to the pre-distribution generator. The skewed
// choosers exist to exercise the workload fingerprinter: zipf concentrates
// traffic on a few ranks, hotspot splits it into a hot set and a cold tail.
//
// Ranks index the client's live-key slice, whose order is maintenance
// order (inserts append, deletes swap-remove). Under a read-mostly phase
// the slice is stable and the hot set is a fixed set of keys; under write
// churn the hot *positions* stay hot while the keys occupying them change
// slowly — both are realistic skew, and both are deterministic.

// KeyDist selects how a stream picks among live keys.
type KeyDist struct {
	// Kind is "uniform", "zipf", or "hotspot".
	Kind string
	// Theta is the zipf exponent (Kind "zipf"; 0.99 when unset).
	Theta float64
	// HotAccess/HotKeys parameterize "hotspot": HotAccess of the traffic
	// targets the hottest HotKeys fraction of live keys (e.g. 0.90/0.10).
	HotAccess, HotKeys float64
}

// UniformDist returns the default chooser.
func UniformDist() KeyDist { return KeyDist{Kind: "uniform"} }

// Validate checks the distribution's parameters.
func (d KeyDist) Validate() error {
	switch d.Kind {
	case "", "uniform":
		return nil
	case "zipf":
		if !(d.Theta > 0 && d.Theta < 8) { // NaN fails every comparison, so test for inside
			return fmt.Errorf("dist: zipf theta %g outside (0,8)", d.Theta)
		}
		return nil
	case "hotspot":
		if !(d.HotAccess > 0 && d.HotAccess < 1 && d.HotKeys > 0 && d.HotKeys < 1) {
			return fmt.Errorf("dist: hotspot %g/%g; want fractions in (0,1)", d.HotAccess, d.HotKeys)
		}
		return nil
	default:
		return fmt.Errorf("dist: unknown kind %q (want uniform, zipf:THETA, hotspot:HOT/KEYS)", d.Kind)
	}
}

// ParseKeyDist parses "uniform", "zipf:1.1", or "hotspot:90/10" (90% of
// accesses to the hottest 10% of keys; percentages or fractions both work).
func ParseKeyDist(s string) (KeyDist, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "uniform" {
		return UniformDist(), nil
	}
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "zipf":
		d := KeyDist{Kind: "zipf", Theta: 0.99}
		if arg != "" {
			t, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return d, fmt.Errorf("dist: zipf theta %q: %v", arg, err)
			}
			d.Theta = t
		}
		return d, d.Validate()
	case "hotspot":
		d := KeyDist{Kind: "hotspot", HotAccess: 0.90, HotKeys: 0.10}
		if arg != "" {
			a, k, ok := strings.Cut(arg, "/")
			if !ok {
				return d, fmt.Errorf("dist: hotspot wants HOT/KEYS, got %q", arg)
			}
			av, err1 := strconv.ParseFloat(a, 64)
			kv, err2 := strconv.ParseFloat(k, 64)
			if err1 != nil || err2 != nil {
				return d, fmt.Errorf("dist: hotspot %q: bad numbers", arg)
			}
			if av > 1 {
				av /= 100
			}
			if kv > 1 {
				kv /= 100
			}
			d.HotAccess, d.HotKeys = av, kv
		}
		return d, d.Validate()
	default:
		return KeyDist{}, fmt.Errorf("dist: unknown kind %q (want uniform, zipf:THETA, hotspot:HOT/KEYS)", kind)
	}
}

// String renders the distribution in ParseKeyDist form.
func (d KeyDist) String() string {
	switch d.Kind {
	case "zipf":
		return fmt.Sprintf("zipf:%g", d.Theta)
	case "hotspot":
		return "hotspot:" + percent(d.HotAccess) + "/" + percent(d.HotKeys)
	default:
		return "uniform"
	}
}

// percent renders a hotspot fraction so that ParseKeyDist reads it back
// exactly: as a percentage only when that is above 1 and exact.
func percent(x float64) string {
	if x*100 > 1 && x*100/100 == x {
		x *= 100
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// rank picks an index in [0,n) from the distribution given one uniform
// draw u in [0,1) and, for hotspot, a second draw u2. Uniform never calls
// this — StreamGen keeps its exact single-IntN path.
func (d KeyDist) rank(u, u2 float64, n int) int {
	switch d.Kind {
	case "zipf":
		// Inverse CDF of a truncated continuous pareto over [1, n+1): rank 0
		// is hottest, mass ~ 1/rank^theta.
		var x float64
		if math.Abs(d.Theta-1) < 1e-9 {
			x = math.Pow(float64(n+1), u)
		} else {
			e := 1 - d.Theta
			x = math.Pow(1+u*(math.Pow(float64(n+1), e)-1), 1/e)
		}
		i := int(x) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	case "hotspot":
		hot := int(d.HotKeys * float64(n))
		if hot < 1 {
			hot = 1
		}
		if u < d.HotAccess {
			return clampIdx(int(u2*float64(hot)), hot)
		}
		if hot >= n {
			return clampIdx(int(u2*float64(n)), n)
		}
		return hot + clampIdx(int(u2*float64(n-hot)), n-hot)
	default:
		return clampIdx(int(u*float64(n)), n)
	}
}

// clampIdx guards the float→index conversion against the u≈1 rounding edge.
func clampIdx(i, n int) int {
	if i >= n {
		return n - 1
	}
	if i < 0 {
		return 0
	}
	return i
}
