package main

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"privstats/internal/daemon"
	"privstats/internal/homomorphic"
)

// writeTenants drops a tenant config file into the test's temp dir.
func writeTenants(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodTenants = `[{"name":"acme","weight":2,"rate":5,"burst":10,"max_queued":16}]`

// goodConfig is a fully valid config over a small fresh key; tests mutate
// one field at a time.
func goodConfig(t *testing.T) jobdConfig {
	t.Helper()
	return jobdConfig{
		backends:   "localhost:7000",
		rows:       1000,
		tenantPath: writeTenants(t, goodTenants),
		keyBits:    256,
		slots:      2,
	}
}

func TestBuildGatewayValid(t *testing.T) {
	g, client, _, _, err := buildGateway(goodConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if client == nil {
		t.Fatal("nil client")
	}
}

func TestBuildGatewayMissingRequireds(t *testing.T) {
	cfg := goodConfig(t)
	cfg.backends = "  , "
	if _, _, _, _, err := buildGateway(cfg); !errors.Is(err, errNoBackends) {
		t.Errorf("no backends: %v", err)
	}

	cfg = goodConfig(t)
	cfg.rows = 0
	if _, _, _, _, err := buildGateway(cfg); !errors.Is(err, errNoRows) {
		t.Errorf("zero rows: %v", err)
	}

	cfg = goodConfig(t)
	cfg.tenantPath = "   "
	if _, _, _, _, err := buildGateway(cfg); !errors.Is(err, errNoTenants) {
		t.Errorf("no tenant path: %v", err)
	}

	cfg = goodConfig(t)
	cfg.tenantPath = filepath.Join(t.TempDir(), "no-such-file.json")
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "tenant config") {
		t.Errorf("missing tenant file: %v", err)
	}
}

func TestBuildGatewayRejectsBadTenantPolicies(t *testing.T) {
	cases := []struct {
		name, body, wantSub string
	}{
		{"not json", `{`, "parsing tenant config"},
		{"empty list", `[]`, "no tenants"},
		{"zero weight", `[{"name":"a","weight":0,"rate":1,"burst":1,"max_queued":1}]`, "weight 0 must be positive"},
		{"negative weight", `[{"name":"a","weight":-3,"rate":1,"burst":1,"max_queued":1}]`, "weight -3 must be positive"},
		{"zero rate", `[{"name":"a","weight":1,"rate":0,"burst":1,"max_queued":1}]`, "rate 0 must be positive"},
		{"zero burst", `[{"name":"a","weight":1,"rate":1,"burst":0,"max_queued":1}]`, "burst 0 must be positive"},
		{"zero queue cap", `[{"name":"a","weight":1,"rate":1,"burst":1,"max_queued":0}]`, "max_queued 0 must be positive"},
		{"unnamed", `[{"weight":1,"rate":1,"burst":1,"max_queued":1}]`, "empty name"},
		{"duplicate", `[{"name":"a","weight":1,"rate":1,"burst":1,"max_queued":1},
		                {"name":"a","weight":1,"rate":1,"burst":1,"max_queued":1}]`, "duplicate tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig(t)
			cfg.tenantPath = writeTenants(t, tc.body)
			_, _, _, _, err := buildGateway(cfg)
			if err == nil {
				t.Fatalf("policy %s accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestBuildGatewayRejectsBadKnobs(t *testing.T) {
	cfg := goodConfig(t)
	cfg.slots = 0
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "-slots") {
		t.Errorf("zero slots: %v", err)
	}

	cfg = goodConfig(t)
	cfg.maxJobs = -1
	if _, _, _, _, err := buildGateway(cfg); err == nil {
		t.Error("negative max-jobs accepted")
	}

	cfg = goodConfig(t)
	cfg.jobTimeout = -1
	if _, _, _, _, err := buildGateway(cfg); err == nil {
		t.Error("negative job-timeout accepted")
	}

	cfg = goodConfig(t)
	cfg.chunk = -1
	if _, _, _, _, err := buildGateway(cfg); err == nil {
		t.Error("negative chunk accepted")
	}
}

func TestBuildGatewayStoreDir(t *testing.T) {
	// A valid store dir builds and leaves a journal behind.
	cfg := goodConfig(t)
	cfg.storeDir = filepath.Join(t.TempDir(), "store")
	g, _, _, _, err := buildGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if _, err := os.Stat(filepath.Join(cfg.storeDir, "jobs.wal")); err != nil {
		t.Errorf("no journal created under -store: %v", err)
	}

	// An unusable store dir (an existing file) is rejected pre-socket.
	cfg = goodConfig(t)
	file := filepath.Join(t.TempDir(), "flat-file")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg.storeDir = file
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "store") {
		t.Errorf("file as -store dir: %v", err)
	}

	// A corrupt journal (not ours) is rejected pre-socket, not truncated.
	cfg = goodConfig(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), []byte("not a journal"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg.storeDir = dir
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("corrupt journal under -store: %v", err)
	}
}

func TestBuildGatewayBadKeyFile(t *testing.T) {
	cfg := goodConfig(t)
	cfg.keyPath = filepath.Join(t.TempDir(), "missing.key")
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "reading key") {
		t.Errorf("missing key file: %v", err)
	}

	garbage := filepath.Join(t.TempDir(), "garbage.key")
	if err := os.WriteFile(garbage, []byte("not a key"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg.keyPath = garbage
	if _, _, _, _, err := buildGateway(cfg); err == nil || !strings.Contains(err.Error(), "parsing key") {
		t.Errorf("garbage key file: %v", err)
	}
}

func TestSplitAddrs(t *testing.T) {
	got := daemon.SplitAddrs(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("SplitAddrs = %v", got)
	}
	if out := daemon.SplitAddrs(""); out != nil {
		t.Fatalf("SplitAddrs(\"\") = %v", out)
	}
}

func TestBuildGatewayWiresStockSource(t *testing.T) {
	cfg := goodConfig(t)
	// RemoteSource does not dial until the first fetch, so any address works
	// for construction; draws simply fall back online if nothing listens.
	cfg.backend.Stock = "localhost:1"
	cfg.stockZeros = 8
	cfg.stockOnes = 4
	g, _, _, remote, err := buildGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if remote == nil {
		t.Fatal("no RemoteSource built despite -stock")
	}
	defer remote.Close()
}

func TestBuildGatewayRejectsBadStockTargets(t *testing.T) {
	cfg := goodConfig(t)
	cfg.backend.Stock = "localhost:1"
	cfg.stockZeros = -1
	if _, _, _, _, err := buildGateway(cfg); err == nil {
		t.Fatal("negative stock target accepted")
	}
}

// TestAcceptsOnlyPaillier pins the schemes a hello may name: Paillier alone,
// so a hello naming any other scheme is refused as unknown.
func TestAcceptsOnlyPaillier(t *testing.T) {
	if got := homomorphic.Schemes(); !slices.Equal(got, []string{"paillier"}) {
		t.Fatalf("registered schemes = %v, want [paillier]", got)
	}
}
