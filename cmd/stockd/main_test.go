package main

import (
	"testing"

	"privstats/internal/stock"
	"privstats/internal/testutil"
)

func TestBuildInventoryRejectsBadConfig(t *testing.T) {
	bad := []stockdConfig{
		{},                                  // no targets at all
		{targets: stock.Targets{Zeros: -1}}, // negative depth
		{targets: stock.Targets{Zeros: 1}, maxKeys: -2},
		{targets: stock.Targets{Zeros: 1}, rate: -100},
	}
	for i, cfg := range bad {
		if inv, err := buildInventory(cfg); err == nil {
			inv.Close()
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestBuildInventoryDefaults(t *testing.T) {
	inv, err := buildInventory(stockdConfig{
		targets: stock.Targets{Zeros: 4, Ones: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAddrInUseFailsStartup(t *testing.T) {
	testutil.RequireStatsAddrInUseFails(t, "stockd", "stock daemon on", "-listen", "127.0.0.1:0")
}
