package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"squid"
)

// FuzzInsertBatch posts bytes from outside the process as the body of
// POST /v1/insert/batch to a server over the academics fixture (no WAL)
// and holds the answer to the write path's contract: never a panic or a
// 5xx; a 200 reports every decoded row inserted; a 400 applied exactly
// the rows before the row its error names, so the αDB saves to the bytes
// of a twin that was sent only those rows — and when the rows were
// rejected on the wire (`row %d`) or the body never decoded, the αDB
// saves to the bytes it started from.
func FuzzInsertBatch(f *testing.F) {
	built, err := squid.Build(academicsDB(), squid.DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	var base bytes.Buffer
	if err := built.Save(&base); err != nil {
		f.Fatal(err)
	}
	load := func(t *testing.T) *squid.System {
		sys, err := squid.Load(bytes.NewReader(base.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	post := func(sys *squid.System, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		New(sys, Config{}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/insert/batch", bytes.NewReader(body)))
		return w
	}
	save := func(t *testing.T, sys *squid.System) []byte {
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sys := load(t)
		w := post(sys, body)
		if w.Code >= 500 {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var req InsertBatchRequest
		if w.Code == http.StatusOK {
			var resp InsertResponse
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("a 200 for a body that does not decode: %v", err)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Inserted != len(req.Ops) {
				t.Fatalf("a 200 reports %s for %d decoded rows", w.Body, len(req.Ops))
			}
			return
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("status %d with no error envelope: %s", w.Code, w.Body)
		}
		// applied is how many rows the answer says were applied: the rows
		// before a row the αDB rejected, none for anything else.
		applied := 0
		if e.Code == "bad_insert" {
			var row int
			if _, err := fmt.Sscanf(e.Error, "row %d:", &row); err != nil {
				if _, err := fmt.Sscanf(e.Error, "adb: batch insert %d", &applied); err != nil {
					t.Fatalf("a bad_insert that names no row: %q", e.Error)
				}
			}
		}
		want := base.Bytes()
		if applied > 0 {
			if err := json.Unmarshal(body, &req); err != nil || applied >= len(req.Ops) {
				t.Fatalf("%q names row %d of %d decoded rows (%v)", e.Error, applied, len(req.Ops), err)
			}
			twin := load(t)
			prefix, err := json.Marshal(InsertBatchRequest{Ops: req.Ops[:applied]})
			if err != nil {
				t.Fatal(err)
			}
			if tw := post(twin, prefix); tw.Code != http.StatusOK {
				t.Fatalf("the twin refused the %d rows before the rejected one: %d %s", applied, tw.Code, tw.Body)
			}
			want = save(t, twin)
		}
		if got := save(t, sys); !bytes.Equal(got, want) {
			t.Fatalf("%d %q: the αDB saves to %d bytes, not the %d of the %d rows before the rejected one",
				w.Code, e.Error, len(got), len(want), applied)
		}
	})
}
