package database

import "testing"

// TestColumnFill: the in-memory columns' Fill gives exactly what At gives
// row by row, for any range within the column, and panics on a range past
// either end.
func TestColumnFill(t *testing.T) {
	table, err := Generate(50, DistUniform, 13)
	if err != nil {
		t.Fatal(err)
	}
	for name, col := range map[string]Column{
		"value":  table.Column(),
		"square": table.SquareColumn(),
		"ones":   Ones(50),
	} {
		for _, r := range [][2]int{{0, 50}, {7, 13}, {49, 1}, {50, 0}} {
			got := make([]uint64, r[1])
			col.Fill(got, r[0])
			for k, g := range got {
				if want := col.At(r[0] + k); g != want {
					t.Fatalf("%s: Fill row %d = %d, At gives %d", name, r[0]+k, g, want)
				}
			}
		}
		for _, r := range [][2]int{{49, 2}, {-1, 1}, {51, 0}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Fill of rows [%d,%d) did not panic", name, r[0], r[0]+r[1])
					}
				}()
				col.Fill(make([]uint64, r[1]), r[0])
			}()
		}
	}
}
