package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
)

func TestCheckPayloadRejectsFlippedByte(t *testing.T) {
	want := payload(newRand(1, 1))
	if err := checkPayload("p", want, append([]byte(nil), want...)); err != nil {
		t.Fatalf("identical payload rejected: %v", err)
	}
	got := append([]byte(nil), want...)
	got[len(got)/2] ^= 0x01
	if checkPayload("p", want, got) == nil {
		t.Fatal("payload with a flipped byte accepted")
	}
	if checkPayload("p", want, want[:len(want)-1]) == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestCheckCatalogRejectsMissingEntry(t *testing.T) {
	want := []string{"https://a/1", "https://a/2", "https://b/1"}
	records := func(iris ...string) []distexchange.ResourceRecord {
		out := make([]distexchange.ResourceRecord, len(iris))
		for i, iri := range iris {
			out[i] = distexchange.ResourceRecord{ResourceIRI: iri}
		}
		return out
	}
	if err := checkCatalog(records("https://b/1", "https://a/1", "https://a/2"), want); err != nil {
		t.Fatalf("exact catalog rejected: %v", err)
	}
	for name, got := range map[string][]distexchange.ResourceRecord{
		"missing":   records("https://a/1", "https://b/1"),
		"duplicate": records("https://a/1", "https://a/2", "https://b/1", "https://b/1"),
		"replaced":  records("https://a/1", "https://a/2", "https://c/1"),
	} {
		if checkCatalog(got, want) == nil {
			t.Errorf("%s entry accepted", name)
		}
	}
}

func TestCheckReceiptRejectsRevert(t *testing.T) {
	h := cryptoutil.HashOf([]byte("tx"))
	if err := checkReceipt("v0", h, &chain.Receipt{TxHash: h, Status: chain.StatusOK}); err != nil {
		t.Fatalf("successful receipt rejected: %v", err)
	}
	if checkReceipt("v0", h, &chain.Receipt{TxHash: h, Status: chain.StatusReverted, Err: "boom"}) == nil {
		t.Fatal("reverted receipt accepted")
	}
	if checkReceipt("v0", h, nil) == nil {
		t.Fatal("missing receipt accepted")
	}
}

func TestCheckEvidenceRejectsWrongUseCount(t *testing.T) {
	devs := []cryptoutil.Address{{1}, {2}}
	good := func() []distexchange.EvidenceRecord {
		var out []distexchange.EvidenceRecord
		for _, d := range devs {
			out = append(out, distexchange.EvidenceRecord{Verified: true, Round: 1, Evidence: distexchange.Evidence{
				Device: d, Round: 1, UseCount: 4, PolicyVersion: 2, StillStored: true,
			}})
		}
		return out
	}
	if err := checkEvidence("r", 1, good(), nil, devs, 4, 2); err != nil {
		t.Fatalf("correct evidence rejected: %v", err)
	}
	corrupt := map[string]func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation){
		"use count": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			ev[1].Evidence.UseCount = 3
			return ev, nil
		},
		"version": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			ev[0].Evidence.PolicyVersion = 1
			return ev, nil
		},
		"unverified": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			ev[0].Verified = false
			return ev, nil
		},
		"missing": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			return ev[:1], nil
		},
		"repeated": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			ev[1] = ev[0]
			return ev, nil
		},
		"violation": func(ev []distexchange.EvidenceRecord) ([]distexchange.EvidenceRecord, []distexchange.Violation) {
			return ev, []distexchange.Violation{{Kind: distexchange.ViolationMaxUses}}
		},
	}
	for name, f := range corrupt {
		ev, viol := f(good())
		if checkEvidence("r", 1, ev, viol, devs, 4, 2) == nil {
			t.Errorf("evidence with wrong %s accepted", name)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"market": func(s uint64) any { return genMarket(s, 3) },
		"ingest": func(s uint64) any { return genIngest(s, 3) },
		"browse": func(s uint64) any { return genBrowse(s, 3) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds generated identical inputs", name)
		}
	}
}

// TestShortRuns runs every workload for a few rounds, plain and traced,
// and demands zero failures and passing checks.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three deployments per workload")
	}
	outDir = t.TempDir()
	for _, name := range []string{"market", "ingest", "browse"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			cfg := runConfig{seed: 3, rounds: 2, deadline: time.Now().Add(time.Minute)}
			for _, run := range []func(workload, runConfig) (result, error){runPlain, runTraced} {
				res, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two deployments")
	}
	outDir = t.TempDir()
	res, err := runTraced(marketWorkload, runConfig{seed: 5, rounds: 2, deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Fatalf("traced run printed %d metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	if got := res.Metrics["chain.blocks_per_op"].Value; got != 12.0/25 {
		t.Errorf("market chain.blocks_per_op = %v, want 12 blocks per 25-operation lifecycle", got)
	}
}
