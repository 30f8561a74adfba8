package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	o := New(64)
	o.M().Counter("test_total", "a counter").Add(5)
	sp := o.T().Start("work")
	sp.Child("phase").End()
	sp.End()

	ts := httptest.NewServer(o.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get(PathMetrics)
	if !strings.Contains(metrics, "test_total 5") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if err := ValidateExposition([]byte(metrics)); err != nil {
		t.Errorf("/metrics invalid exposition: %v", err)
	}

	trace, _ := get(PathTrace)
	if !strings.Contains(trace, `"name":"work"`) {
		t.Errorf("/debug/trace missing span:\n%s", trace)
	}
	tree, _ := get(PathTraceTree)
	if !strings.Contains(tree, "work") || !strings.Contains(tree, "  phase") {
		t.Errorf("/debug/trace.txt tree:\n%s", tree)
	}

	// pprof index and one profile endpoint answer.
	idx, _ := get(PathPprof)
	if !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index:\n%.200s", idx)
	}
	get(PathPprof + "goroutine")
}

// TestHandlerWithoutTracer: a metrics-only Obs serves /metrics and pprof
// and has no trace endpoints.
func TestHandlerWithoutTracer(t *testing.T) {
	o := NewMetrics()
	if o.T() != nil {
		t.Fatal("NewMetrics has a tracer")
	}
	o.M().Counter("test_total", "a counter").Add(2)
	h := o.Handler()
	for path, want := range map[string]int{
		PathMetrics:   http.StatusOK,
		PathPprof:     http.StatusOK,
		PathTrace:     http.StatusNotFound,
		PathTraceTree: http.StatusNotFound,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("GET %s: status %d, want %d", path, rec.Code, want)
		}
	}
}

func TestIsObsPath(t *testing.T) {
	for _, p := range []string{PathMetrics, PathTrace, PathTraceTree, PathPprof, PathPprof + "heap"} {
		if !IsObsPath(p) {
			t.Errorf("IsObsPath(%q) = false", p)
		}
	}
	for _, p := range []string{"/", "/v1/predict", "/debug/vars", "/metricsx"} {
		if IsObsPath(p) {
			t.Errorf("IsObsPath(%q) = true", p)
		}
	}
}

func TestWriteFiles(t *testing.T) {
	o := New(64)
	o.M().Counter("c_total", "").Inc()
	o.T().Start("run").End()

	dir := t.TempDir()
	if err := o.WriteFiles(filepath.Join(dir, "obs")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.json", "trace.txt", "metrics.prom"} {
		data, err := os.ReadFile(filepath.Join(dir, "obs", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}

	// Nil Obs writes nothing and does not error.
	var nilObs *Obs
	if err := nilObs.WriteFiles(filepath.Join(dir, "nil")); err != nil {
		t.Errorf("nil WriteFiles: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "nil")); !os.IsNotExist(err) {
		t.Error("nil Obs created the dump directory")
	}
}
