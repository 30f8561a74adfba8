package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteCSVTable(t *testing.T) {
	dir := t.TempDir()
	res := Result{
		ID: "figX",
		Tables: []Table{
			{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}},
			{Columns: []string{"c"}, Rows: [][]string{{"5"}}},
		},
		Series: []Series{{Name: "cdf all", X: []float64{1, 2}, Y: []float64{0.5, 1}}},
	}
	if err := WriteCSV(dir, res); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "figX.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[2][1] != "4" {
		t.Errorf("table csv = %v", rows)
	}

	if _, err := os.Stat(filepath.Join(dir, "figX-1.csv")); err != nil {
		t.Errorf("second table missing: %v", err)
	}

	sf, err := os.Open(filepath.Join(dir, "figX-series-cdf_all.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	srows, err := csv.NewReader(sf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 3 || srows[0][0] != "x" || srows[1][0] != "1" {
		t.Errorf("series csv = %v", srows)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c:d"); got != "a_b_c_d" {
		t.Errorf("sanitize = %q", got)
	}
}
