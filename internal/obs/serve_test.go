package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec.ops").Add(3)
	reg.Histogram("exec.op_ns").Observe(1500)
	h := Handler(reg)

	code, body := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "ruid_exec_ops 3") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	for _, want := range []string{
		"# TYPE ruid_exec_ops counter",
		"# TYPE ruid_exec_op_ns histogram",
		`ruid_exec_op_ns_bucket{le="+Inf"} 1`,
		"ruid_exec_op_ns_sum 1500",
		"ruid_exec_op_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, h, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if snap["exec.ops"] != float64(3) {
		t.Errorf("json exec.ops = %v", snap["exec.ops"])
	}

	code, _ = get(t, h, "/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}

	// One metrics surface: the legacy flat dump and expvar are gone.
	for _, gone := range []string{"/metrics.txt", "/debug/vars"} {
		if code, _ = get(t, h, gone); code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", gone, code)
		}
	}
}

// TestHardenedServerTimeouts pins the connection deadlines every listener
// in the repo inherits through NewHTTPServer: the read-side deadlines must
// be set (a server without them holds a goroutine per slow-loris
// connection indefinitely), and WriteTimeout must stay zero so the pprof
// profile/trace endpoints can stream for a client-chosen duration.
func TestHardenedServerTimeouts(t *testing.T) {
	srv := NewHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-loris headers hold connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: slow request bodies hold connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections are never reclaimed")
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (pprof profile/trace stream long responses)", srv.WriteTimeout)
	}
}

// TestServeUsesHardenedServer ensures the observability endpoint goes
// through the hardened constructor rather than a bare http.Server.
func TestServeUsesHardenedServer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.srv.IdleTimeout != IdleTimeout {
		t.Errorf("Serve bypassed NewHTTPServer: %+v", srv.srv)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("doc.queries").Inc()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "ruid_doc_queries 1") {
		t.Fatalf("served metrics: %q", body)
	}
}
