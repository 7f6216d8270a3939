package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"privstats/internal/cluster"
	"privstats/internal/homomorphic"
	"privstats/internal/testutil"
)

func TestBuildAggregatorEmptySpec(t *testing.T) {
	for _, spec := range []string{"", "   ", "\t"} {
		_, _, _, err := buildAggregator(spec, cluster.ClientConfig{}, cluster.AggregatorConfig{})
		if !errors.Is(err, errNoShards) {
			t.Errorf("spec %q: err = %v, want errNoShards", spec, err)
		}
	}
}

func TestBuildAggregatorValid(t *testing.T) {
	shards, client, agg, err := buildAggregator(
		"0-500=a:1|b:1;500-1000=c:1",
		cluster.ClientConfig{}, cluster.AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if shards.Rows() != 1000 || shards.Len() != 2 {
		t.Errorf("rows=%d len=%d", shards.Rows(), shards.Len())
	}
	if client == nil || agg == nil {
		t.Error("nil client or aggregator")
	}
}

func TestBuildAggregatorRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name, spec, wantSub string
	}{
		{"duplicate range", "0-500=a:1;0-500=b:1", "starts at row 0, want 500"},
		{"overlap", "0-500=a:1;400-1000=b:1", "starts at row 400, want 500"},
		{"gap", "0-500=a:1;600-1000=b:1", "starts at row 600, want 500"},
		{"empty range", "0-0=a:1", "empty range"},
		{"no backends", "0-500=", "no backends"},
		{"garbage", "not-a-spec", "want lo-hi"},
		{"bad number", "0-x=a:1", "invalid syntax"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := buildAggregator(tc.spec, cluster.ClientConfig{}, cluster.AggregatorConfig{})
			if err == nil {
				t.Fatalf("spec %q should fail", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestStatsAddrInUseFailsStartup(t *testing.T) {
	testutil.RequireStatsAddrInUseFails(t, "sumproxy", "aggregating 16 rows", "-listen", "127.0.0.1:0", "-shards", "0-16=127.0.0.1:1")
}

// TestAcceptsOnlyPaillier pins the schemes a hello may name: Paillier alone,
// so a hello naming any other scheme is refused as unknown.
func TestAcceptsOnlyPaillier(t *testing.T) {
	if got := homomorphic.Schemes(); !slices.Equal(got, []string{"paillier"}) {
		t.Fatalf("registered schemes = %v, want [paillier]", got)
	}
}
