package main

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
)

// The checks compare the program's outputs with values the benchmark
// generated itself, or with properties the method must have. Each
// returns nil or a description of the first disagreement.

func checkPayload(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: got %d bytes that differ from the %d generated", what, len(got), len(want))
	}
	return nil
}

// checkCatalog demands that a listing holds exactly the wanted IRIs, each
// once.
func checkCatalog(records []distexchange.ResourceRecord, want []string) error {
	got := make([]string, len(records))
	for i, r := range records {
		got[i] = r.ResourceIRI
	}
	slices.Sort(got)
	w := slices.Sorted(slices.Values(want))
	if slices.Equal(got, w) {
		return nil
	}
	missing, extra := diffSorted(w, got)
	return fmt.Errorf("catalog has %d entries, want %d (missing %d, unexpected %d)", len(got), len(w), missing, extra)
}

// diffSorted counts the elements of want absent from got and of got
// absent from want (duplicates count as unexpected).
func diffSorted(want, got []string) (missing, extra int) {
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			missing++
			i++
		case i == len(want) || got[j] < want[i]:
			extra++
			j++
		default:
			i++
			j++
		}
	}
	return missing, extra
}

func checkIndex(rec distexchange.ResourceRecord, iri, location string) error {
	if rec.ResourceIRI != iri || rec.Location != location {
		return fmt.Errorf("index %s: got record for %q at %q, want location %q", iri, rec.ResourceIRI, rec.Location, location)
	}
	if rec.Policy == nil || rec.Policy.ResourceIRI != iri {
		return fmt.Errorf("index %s: record carries no policy for the resource", iri)
	}
	return nil
}

// checkReceipt demands a committed, successful receipt for tx.
func checkReceipt(where string, tx cryptoutil.Hash, r *chain.Receipt) error {
	switch {
	case r == nil:
		return fmt.Errorf("%s: no receipt for tx %s", where, tx.Short())
	case r.Status != chain.StatusOK:
		return fmt.Errorf("%s: tx %s reverted: %s", where, tx.Short(), r.Err)
	}
	return nil
}

// checkEvidence demands one verified evidence record per holder for the
// round, each reporting the uses made and the policy version enforced,
// and no violations.
func checkEvidence(iri string, round uint64, evidence []distexchange.EvidenceRecord, violations []distexchange.Violation,
	holders []cryptoutil.Address, uses, version uint64) error {
	if len(violations) != 0 {
		return fmt.Errorf("monitor %s round %d: %d violations (first: %s %s)", iri, round, len(violations), violations[0].Kind, violations[0].Detail)
	}
	if len(evidence) != len(holders) {
		return fmt.Errorf("monitor %s round %d: %d evidence records for %d holders", iri, round, len(evidence), len(holders))
	}
	seen := map[cryptoutil.Address]bool{}
	for _, rec := range evidence {
		e := rec.Evidence
		switch {
		case !rec.Verified:
			return fmt.Errorf("monitor %s: evidence from %s not verified", iri, e.Device.Short())
		case rec.Round != round || e.Round != round:
			return fmt.Errorf("monitor %s: evidence for round %d, want %d", iri, e.Round, round)
		case !slices.Contains(holders, e.Device) || seen[e.Device]:
			return fmt.Errorf("monitor %s: evidence from unexpected or repeated device %s", iri, e.Device.Short())
		case e.UseCount != uses:
			return fmt.Errorf("monitor %s: device %s reports %d uses, the load generator made %d", iri, e.Device.Short(), e.UseCount, uses)
		case e.PolicyVersion != version:
			return fmt.Errorf("monitor %s: device %s enforces policy v%d, want v%d", iri, e.Device.Short(), e.PolicyVersion, version)
		case !e.StillStored:
			return fmt.Errorf("monitor %s: device %s no longer stores its copy", iri, e.Device.Short())
		}
		seen[e.Device] = true
	}
	return nil
}

// checkAgreement demands that every validator has the same height and
// head hash.
func checkAgreement(nodes []*chain.Node) error {
	h0, head0 := nodes[0].Height(), nodes[0].Head().Hash()
	for i, n := range nodes[1:] {
		if n.Height() != h0 || n.Head().Hash() != head0 {
			return fmt.Errorf("validator %d at height %d head %s, validator 0 at %d head %s",
				i+1, n.Height(), n.Head().Hash().Short(), h0, head0.Short())
		}
	}
	return nil
}

func checkCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}
