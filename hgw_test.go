package hgw_test

import (
	"context"
	"strings"
	"testing"

	"hgw"
)

// TestEndToEndSmall is the end-to-end reproduction check on a small
// device subset; the full-population run lives in the benchmarks and
// cmd/hgbench.
func TestEndToEndSmall(t *testing.T) {
	results, err := hgw.Run(context.Background(),
		[]string{"udp1", "icmp", "dns", "sctp", "dccp"},
		hgw.WithTags("je", "be2", "owrt", "nw1"), hgw.WithIterations(2))
	if err != nil {
		t.Fatal(err)
	}
	f1 := results.Get("udp1").Figure
	if len(f1.Points) != 4 {
		t.Fatalf("points = %d", len(f1.Points))
	}
	if f1.Points[0].Tag != "je" && f1.Points[0].Tag != "owrt" {
		t.Errorf("shortest UDP-1 = %s, want je/owrt (30 s)", f1.Points[0].Tag)
	}
	if f1.Points[3].Tag != "be2" {
		t.Errorf("longest UDP-1 = %s, want be2", f1.Points[3].Tag)
	}

	table, ok := results.Table2()
	if !ok || !strings.Contains(table, "owrt") || !strings.Contains(table, "•") {
		t.Errorf("table 2 rendering broken (complete %v):\n%s", ok, table)
	}
}

func TestDevicesMatchTable1(t *testing.T) {
	devs := hgw.Devices()
	if len(devs) != 34 {
		t.Fatalf("devices = %d, want 34", len(devs))
	}
	seen := map[string]bool{}
	for _, d := range devs {
		if d.Tag == "" || d.Vendor == "" || d.Model == "" {
			t.Errorf("incomplete profile: %+v", d)
		}
		if seen[d.Tag] {
			t.Errorf("duplicate tag %s", d.Tag)
		}
		seen[d.Tag] = true
	}
	for _, tag := range []string{"al", "ap", "as1", "be1", "be2", "bu1",
		"dl1", "dl2", "dl3", "dl4", "dl5", "dl6", "dl7", "dl8", "dl9", "dl10",
		"ed", "je", "ls1", "ls2", "ls3", "ls5", "owrt", "to",
		"ng1", "ng2", "ng3", "ng4", "ng5", "nw1", "smc", "te", "we", "zy1"} {
		if !seen[tag] {
			t.Errorf("missing paper tag %s", tag)
		}
	}
}
