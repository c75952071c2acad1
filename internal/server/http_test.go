package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// indented is the body every JSON route serves for v: a json.Encoder with
// two-space indentation, HTML escaping and a trailing newline.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResponseBodiesAreIndentedJSON drives every JSON route, error bodies
// and event pages included, and holds each body to the encoding of the value
// it decodes to: byte for byte what an indenting json.Encoder writes.
func TestResponseBodiesAreIndentedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	mat := SubmitRequest{Tenant: "acme", Program: gnmfSource(), Tile: 4, Density: 0.4, Nodes: 4, Materialize: true, Seed: 11, Trace: true}
	done := await(t, ts.URL, submit(t, ts.URL, mat).ID)
	virt := await(t, ts.URL, submit(t, ts.URL, SubmitRequest{Tenant: "b<&>", Program: gnmfSource(), Tile: 4, Nodes: 2}).ID)
	if done.State != StateSucceeded || virt.State != StateSucceeded {
		t.Fatalf("jobs ended %s and %s", done.State, virt.State)
	}
	body, err := json.Marshal(mat)
	if err != nil {
		t.Fatal(err)
	}
	type errBody = map[string]string
	routes := []struct {
		method, path, body string
		code               int
		into               any
	}{
		{"POST", "/v1/jobs", string(body), http.StatusAccepted, new(JobStatus)},
		{"POST", "/v1/jobs", `{"program": "input A 2 2\noutput <B>"}`, http.StatusBadRequest, new(errBody)},
		{"POST", "/v1/jobs", `{"tile": "x"}`, http.StatusBadRequest, new(errBody)},
		{"GET", "/v1/jobs", "", http.StatusOK, new(JobPage)},
		{"GET", "/v1/jobs?limit=1", "", http.StatusOK, new(JobPage)},
		{"GET", "/v1/jobs?limit=0", "", http.StatusBadRequest, new(errBody)},
		{"GET", "/v1/jobs/" + done.ID, "", http.StatusOK, new(JobStatus)},
		{"GET", "/v1/jobs/" + virt.ID + "/result", "", http.StatusOK, new(JobStatus)},
		{"GET", "/v1/jobs/j-999999", "", http.StatusNotFound, new(errBody)},
		{"GET", "/v1/jobs/" + done.ID + "/events?wait=0", "", http.StatusOK, new(EventPage)},
		{"GET", "/v1/jobs/" + done.ID + "/events?since=3&wait=0", "", http.StatusOK, new(EventPage)},
		{"GET", "/v1/jobs/" + done.ID + "/events?since=x", "", http.StatusBadRequest, new(errBody)},
		{"GET", "/v1/jobs/" + done.ID + "/critpath", "", http.StatusNotFound, new(errBody)},
		{"DELETE", "/v1/jobs/" + done.ID, "", http.StatusConflict, new(errBody)},
		{"GET", "/v1/stats", "", http.StatusOK, new(Stats)},
	}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != rt.code || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: %d %q, want %d application/json", rt.method, rt.path, resp.StatusCode, resp.Header.Get("Content-Type"), rt.code)
		}
		if err := json.Unmarshal(got, rt.into); err != nil {
			t.Fatalf("%s %s: %v", rt.method, rt.path, err)
		}
		if want := indented(t, rt.into); !bytes.Equal(got, want) {
			t.Errorf("%s %s: body\n%s\nan indenting encoder writes\n%s", rt.method, rt.path, got, want)
		}
	}
}

// nullWriter is a ResponseWriter that keeps nothing but its one header map.
type nullWriter http.Header

func (w nullWriter) Header() http.Header         { return http.Header(w) }
func (w nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nullWriter) WriteHeader(int)             {}

// TestWriteJSONAllocates bounds what writing a response allocates: the
// buffer and the encoder with its indentation buffer are pooled, so an event
// page costs only its Content-Type header value, and an error body that and
// the sorted keys of its map: 1 and 4 allocations, where an encoder made per
// response took 7 for either.
func TestWriteJSONAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	w := nullWriter(http.Header{})
	page := &EventPage{Events: []JobEvent{{Seq: 1, Type: EvQueued}, {Seq: 2, Type: EvAdmitted}}, Next: 3}
	errBody := map[string]string{"error": "no such job"}
	writeJSON(w, http.StatusOK, page)
	if n := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusOK, page) }); n > 1 {
		t.Errorf("writing an event page makes %g allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusNotFound, errBody) }); n > 4 {
		t.Errorf("writing an error body makes %g allocations, want at most 4", n)
	}
}
