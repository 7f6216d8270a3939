package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privstats/internal/cluster"
	"privstats/internal/metrics"
)

// TestReshardHandler drives POST /reshard in process: a valid spec advances
// the epoch and counts the cut-over; every refusal leaves the epoch and the
// counter where they were.
func TestReshardHandler(t *testing.T) {
	initial, err := cluster.ParseShardMap("0-100=a:1")
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := cluster.NewEpochs(initial)
	if err != nil {
		t.Fatal(err)
	}
	cm := &metrics.ClusterMetrics{}
	h := reshardHandler(epochs, cm)
	do := func(method, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/reshard", strings.NewReader(body)))
		return rec
	}

	rec := do(http.MethodPost, "0-50=a:1;50-100=b:1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("valid spec: HTTP %d: %s", rec.Code, rec.Body)
	}
	var got struct{ Epoch, Rows, Shards int }
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response %q: %v", rec.Body, err)
	}
	if got.Epoch != 2 || got.Rows != 100 || got.Shards != 2 {
		t.Errorf("response = %+v, want epoch 2, 100 rows, 2 shards", got)
	}
	if epoch, m := epochs.Current(); epoch != 2 || m.Len() != 2 {
		t.Errorf("register at epoch %d with %d shards, want 2 with 2", epoch, m.Len())
	}
	if n := cm.Reshards.Value(); n != 1 {
		t.Errorf("reshards counter = %d, want 1", n)
	}

	refusals := []struct {
		name, method, body string
		code               int
	}{
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"unparsable spec", http.MethodPost, "not-a-spec", http.StatusBadRequest},
		{"spec over 1 MiB", http.MethodPost, "0-100=" + strings.Repeat("a", maxReshardBody), http.StatusBadRequest},
		{"row count changes", http.MethodPost, "0-101=a:1", http.StatusConflict},
	}
	for _, tc := range refusals {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(tc.method, tc.body)
			if rec.Code != tc.code {
				t.Errorf("HTTP %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
			if tc.code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") != http.MethodPost {
				t.Errorf("Allow = %q, want POST", rec.Header().Get("Allow"))
			}
			if epoch, _ := epochs.Current(); epoch != 2 {
				t.Errorf("refused request moved the epoch to %d", epoch)
			}
			if n := cm.Reshards.Value(); n != 1 {
				t.Errorf("reshards counter = %d after a refusal, want 1", n)
			}
		})
	}
}
