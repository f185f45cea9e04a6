package experiments

import "testing"

// TestRenderCSV pins what albic-bench -csv prints for a small hand-built
// result: a comment line and a header per panel, x from the first series that
// has one, an empty cell where a series is short, %g numbers, and a label that
// holds a comma and a double quote quoted as RFC 4180 wants.
func TestRenderCSV(t *testing.T) {
	r := &Result{
		Name:  "figX",
		Title: "Two panels",
		Panels: []Panel{
			{
				Title:  "Load",
				XLabel: "nodes",
				Series: []Series{
					{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 1.25}},
					{Label: "B", X: []float64{1, 2, 3}, Y: []float64{2, 3, 4}},
				},
			},
			{
				Title:  "Moves",
				XLabel: "period",
				Series: []Series{{Label: `p50, "ms"`, X: []float64{10}, Y: []float64{1e6}}},
			},
		},
	}
	want := "# figX / Two panels (panel 0: Load)\n" +
		"nodes,A,B\n" +
		"1,0.5,2\n" +
		"2,1.25,3\n" +
		"3,,4\n" +
		"\n" +
		"# figX / Two panels (panel 1: Moves)\n" +
		"period,\"p50, \"\"ms\"\"\"\n" +
		"10,1e+06\n" +
		"\n"
	if got := r.RenderCSV(); got != want {
		t.Fatalf("RenderCSV:\n%s\nwant:\n%s", got, want)
	}
}
