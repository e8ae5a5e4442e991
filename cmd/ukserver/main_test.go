package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/obs"
)

// TestSelfcheck runs the full CI smoke path in-process: every endpoint,
// both instance kinds, over real HTTP on a loopback port. The flight
// recorder runs at its production defaults so the trace-retention step is
// exercised, not skipped.
func TestSelfcheck(t *testing.T) {
	gw, err := newGateway(1, nil, obs.NewFlightRecorder(obs.FlightConfig{}), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	if err := gw.selfcheck(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(3)), 15, 3, 2, 2, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataio.WriteEuclidean(&body, pts); err != nil {
		t.Fatal(err)
	}
	doc := body.String()

	do := func(method, path, payload string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodPut, "/v1/instances/a", doc); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	// Duplicate registration conflicts — including under the OTHER kind:
	// names are unique across kinds, or the router would shadow one copy.
	if resp := do(http.MethodPut, "/v1/instances/a", doc); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", resp.StatusCode)
	}
	finDoc := `{"kind":"finite","metric":[[0,1],[1,0]],"finite_points":[{"locs":[0,1],"probs":[0.5,0.5]}]}`
	if resp := do(http.MethodPut, "/v1/instances/a", finDoc); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-kind duplicate register: %d, want 409", resp.StatusCode)
	}
	// Garbage documents are unprocessable; garbage JSON is a bad request.
	if resp := do(http.MethodPut, "/v1/instances/b", `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[0.2]}]}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid instance: %d, want 422", resp.StatusCode)
	}
	if resp := do(http.MethodPut, "/v1/instances/c", `{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d, want 400", resp.StatusCode)
	}
	// deadline_ms 0 means "no per-request deadline": the solve succeeds.
	if resp := do(http.MethodPost, "/v1/solve", `{"instance":"a","k":2,"deadline_ms":0}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if resp := do(http.MethodPost, "/v1/ecost", `{"instance":"a"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ecost without centers: %d, want 422", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/v1/instances/zzz", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregister unknown: %d, want 404", resp.StatusCode)
	}
	// Freezing without a snapshot directory is a configuration conflict, not
	// a not-found: the instance exists, the server just has nowhere to put it.
	if resp := do(http.MethodPost, "/v1/instances/a/freeze", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze without snapshot dir: %d, want 409", resp.StatusCode)
	}
}

// TestFreezeNameSanitization pins that a percent-encoded path separator in
// the instance name cannot direct the snapshot outside the directory.
func TestFreezeNameSanitization(t *testing.T) {
	gw, err := newGateway(1, nil, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()
	for _, name := range []string{"%2e%2e", "..%2fescape", "a%2fb"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/instances/"+name+"/freeze", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("freeze %q: %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestNoEmptyOK pins the buffered encode: an instance whose ±1e308
// coordinates overflow every distance to +Inf registers, and its solve
// result cannot be encoded as JSON. The response must carry a JSON body —
// a 500 with the encode error — never a 200 with an empty body.
func TestNoEmptyOK(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	doc := `{"kind":"euclidean","points":[` +
		`{"locs":[[1e308,1e308],[-1e308,-1e308]],"probs":[0.5,0.5]},` +
		`{"locs":[[-1e308,1e308]],"probs":[1]},` +
		`{"locs":[[1e308,-1e308],[0,0]],"probs":[0.25,0.75]}]}`
	do := func(method, path, payload string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := do(http.MethodPut, "/v1/instances/huge", doc); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	code, body := do(http.MethodPost, "/v1/solve", `{"instance":"huge","k":2}`)
	if code == http.StatusOK && len(bytes.TrimSpace(body)) == 0 {
		t.Fatal("solve: 200 with an empty body")
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("solve: %d with a body that is not JSON (%v): %q", code, err, body)
	}
	if code != http.StatusOK {
		if code != http.StatusInternalServerError || out["error"] == nil {
			t.Fatalf("solve: %d %s, want 200 or a 500 with an error body", code, body)
		}
	}
}

// TestWriteJSONEncodeFailure: a value json cannot encode turns the
// requested status into a 500 with a JSON error body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"ecost": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out.Error, "+Inf") {
		t.Fatalf("body %q (%v), want an error naming +Inf", rec.Body.String(), err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]any{"points": 3})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"points\":3}\n" {
		t.Fatalf("encodable value: %d %q", rec.Code, rec.Body.String())
	}
}
