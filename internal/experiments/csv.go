package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// WriteCSV exports a result's tables and series as CSV files under dir:
// <id>.csv for the first table, <id>-<n>.csv for subsequent ones, and
// <id>-series-<name>.csv for each series — ready for gnuplot/matplotlib,
// so the paper's figures can be re-plotted from a reproduction run.
func WriteCSV(dir string, res Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for i, tab := range res.Tables {
		name := res.ID + ".csv"
		if i > 0 {
			name = fmt.Sprintf("%s-%d.csv", res.ID, i)
		}
		if err := writeTableCSV(filepath.Join(dir, name), tab); err != nil {
			return err
		}
	}
	for _, s := range res.Series {
		name := fmt.Sprintf("%s-series-%s.csv", res.ID, sanitize(s.Name))
		if err := writeSeriesCSV(filepath.Join(dir, name), s); err != nil {
			return err
		}
	}
	return nil
}

func writeTableCSV(path string, tab Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(tab.Columns); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	for _, row := range tab.Rows {
		if err := w.Write(row); err != nil {
			return fmt.Errorf("experiments: %s: %w", path, err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	return f.Close()
}

func writeSeriesCSV(path string, s Series) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"x", "y"}); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	n := len(s.X)
	if len(s.Y) < n {
		n = len(s.Y)
	}
	for i := 0; i < n; i++ {
		if err := w.Write([]string{
			strconv.FormatFloat(s.X[i], 'g', 8, 64),
			strconv.FormatFloat(s.Y[i], 'g', 8, 64),
		}); err != nil {
			return fmt.Errorf("experiments: %s: %w", path, err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	return f.Close()
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
