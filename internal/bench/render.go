package bench

import (
	"fmt"
	"strings"

	"repro/internal/rum"
)

// NamedPoint labels a RUM point for triangle rendering. When W is non-nil
// the point is plotted at those barycentric weights (used for the
// cohort-relative placement of Figure 1); otherwise the absolute
// amplification projection of the Point is used.
type NamedPoint struct {
	Label string
	Point rum.Point
	W     *rum.Weights
	// Marker, when nonzero, forces the plot character; several points may
	// share one (e.g. every configuration of a Figure-3 family).
	Marker byte
}

func (p NamedPoint) xy() (float64, float64) {
	if p.W != nil {
		return p.W.XY()
	}
	return p.Point.Barycentric().XY()
}

// RenderTriangle draws the RUM triangle of Figures 1 and 3 in ASCII:
// Read-optimized at the top, Write-optimized bottom-left, Space-optimized
// bottom-right. Each point is plotted with a single marker character (the
// first rune of its label is used when unique, otherwise letters a, b, …)
// and listed in the legend with its measured amplifications.
func RenderTriangle(points []NamedPoint, width int) string {
	if width < 21 {
		width = 61
	}
	if width%2 == 0 {
		width++
	}
	height := width/2 + 1
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}

	// Triangle edges: apex (0.5, 1), base corners (0, 0) and (1, 0).
	set := func(x, y float64, c byte) {
		col := int(x * float64(width-1))
		row := int((1 - y) * float64(height-1))
		if row < 0 || row >= height || col < 0 || col >= width {
			return
		}
		grid[row][col] = c
	}
	steps := width * 2
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		set(0.5*t, t, '/')    // left edge (0,0) → (0.5,1)
		set(1-0.5*t, t, '\\') // right edge (1,0) → (0.5,1)
		set(t, 0, '_')        // base
	}

	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	markers := make([]byte, len(points))
	used := map[byte]bool{'/': true, '\\': true, '_': true, ' ': true}
	next := 0
	for i, p := range points {
		var m byte
		if p.Marker != 0 {
			markers[i] = p.Marker
			x, y := p.xy()
			set(x, y, p.Marker)
			continue
		}
		if len(p.Label) > 0 && !used[p.Label[0]] {
			m = p.Label[0]
		} else {
			for next < len(alphabet) && used[alphabet[next]] {
				next++
			}
			if next < len(alphabet) {
				m = alphabet[next]
			} else {
				m = '*' // alphabet exhausted: share a marker
			}
		}
		if m != '*' {
			used[m] = true
		}
		markers[i] = m
		x, y := p.xy()
		set(x, y, m)
	}

	var b strings.Builder
	b.WriteString(strings.Repeat(" ", width/2-5) + "Read Optimized\n")
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	// Below 31 columns the two corner labels overhang the base, a space apart.
	b.WriteString("Write Optimized" + strings.Repeat(" ", max(1, width-30)) + "Space Optimized\n\n")
	seen := map[byte]bool{}
	for i, p := range points {
		if p.Marker != 0 {
			// Forced markers group many points; legend the marker once.
			if seen[p.Marker] {
				continue
			}
			seen[p.Marker] = true
			fmt.Fprintf(&b, "  %c = %s\n", markers[i], p.Label)
			continue
		}
		if p.W != nil {
			// Relative placement: the corner label comes from the cohort
			// weights, matching the plotted position.
			fmt.Fprintf(&b, "  %c = %-22s %s\n", markers[i], p.Label, p.Point)
			continue
		}
		fmt.Fprintf(&b, "  %c = %-22s %s (%s)\n", markers[i], p.Label, p.Point, p.Point.Classify())
	}
	return b.String()
}
