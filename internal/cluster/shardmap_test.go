package cluster

import (
	"strings"
	"testing"
)

func TestNewShardMapValid(t *testing.T) {
	m, err := NewShardMap([]Shard{
		{Lo: 0, Hi: 5, Backends: []string{"a:1", "a:2"}},
		{Lo: 5, Hi: 9, Backends: []string{"b:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 9 || m.Len() != 2 {
		t.Fatalf("rows=%d len=%d", m.Rows(), m.Len())
	}
	if got := m.Shards()[0].Rows(); got != 5 {
		t.Errorf("shard 0 rows = %d", got)
	}
}

func TestNewShardMapRejects(t *testing.T) {
	cases := []struct {
		name   string
		shards []Shard
	}{
		{"empty", nil},
		{"not starting at zero", []Shard{{Lo: 1, Hi: 5, Backends: []string{"a"}}}},
		{"gap", []Shard{
			{Lo: 0, Hi: 3, Backends: []string{"a"}},
			{Lo: 4, Hi: 8, Backends: []string{"b"}},
		}},
		{"overlap", []Shard{
			{Lo: 0, Hi: 5, Backends: []string{"a"}},
			{Lo: 4, Hi: 8, Backends: []string{"b"}},
		}},
		{"empty range", []Shard{{Lo: 0, Hi: 0, Backends: []string{"a"}}}},
		{"inverted range", []Shard{{Lo: 0, Hi: -2, Backends: []string{"a"}}}},
		{"no backends", []Shard{{Lo: 0, Hi: 5}}},
		{"blank backend", []Shard{{Lo: 0, Hi: 5, Backends: []string{"  "}}}},
	}
	for _, tc := range cases {
		if _, err := NewShardMap(tc.shards); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNewShardMapCopiesInput(t *testing.T) {
	backends := []string{"a:1"}
	shards := []Shard{{Lo: 0, Hi: 3, Backends: backends}}
	m, err := NewShardMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	backends[0] = "mutated"
	if m.Shards()[0].Backends[0] != "a:1" {
		t.Error("shard map aliases caller's backend slice")
	}
}

func TestParseShardMapRoundTrip(t *testing.T) {
	spec := "0-5000=db1:7001|db1b:7001;5000-10000=db2:7001"
	m, err := ParseShardMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != spec {
		t.Errorf("round trip: %q != %q", m.String(), spec)
	}
	if m.Rows() != 10000 || m.Len() != 2 {
		t.Errorf("rows=%d len=%d", m.Rows(), m.Len())
	}
	if got := m.Shards()[0].Backends; len(got) != 2 || got[0] != "db1:7001" {
		t.Errorf("shard 0 backends = %v", got)
	}
}

func TestParseShardMapWhitespaceAndEmptySegments(t *testing.T) {
	m, err := ParseShardMap(" 0-3 = a:1 | b:1 ; ; 3-6 = c:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 6 || m.Len() != 2 {
		t.Errorf("rows=%d len=%d", m.Rows(), m.Len())
	}
}

func TestParseShardMapErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"0-5000",          // missing backends
		"x-10=a:1",        // bad lo
		"0-y=a:1",         // bad hi
		"0:10=a:1",        // wrong range separator
		"0-10=",           // blank backend list
		"5-10=a:1",        // does not start at 0
		"0-5=a:1;6-9=b:1", // gap
	} {
		if _, err := ParseShardMap(spec); err == nil {
			t.Errorf("ParseShardMap(%q) accepted", spec)
		}
	}
}

func TestShardMapStringUsable(t *testing.T) {
	m, err := ParseShardMap(" 0-4 = a:1 ; 4-7 = b:1 ")
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "0-4=a:1") || !strings.Contains(s, "4-7=b:1") {
		t.Errorf("String() = %q", s)
	}
	back, err := ParseShardMap(s)
	if err != nil {
		t.Fatalf("String() not reparseable: %v", err)
	}
	if back.Rows() != 7 {
		t.Errorf("reparsed rows = %d", back.Rows())
	}
}
