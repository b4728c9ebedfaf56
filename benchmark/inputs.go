package main

import (
	"fmt"
	"math/rand/v2"
)

// Every workload's inputs derive from --seed alone. A seed changes which
// resources, consumers and payload bytes an operation uses, never how many
// operations a round makes or how large a payload is, so runs on
// different seeds do the same amount of work.

const (
	payloadSize = 2048 // bytes per published resource

	marketOwners    = 4
	marketConsumers = 8
	marketCatalog   = 400 // resources published during set-up
	marketHolders   = 3   // consumers granted each lifecycle's resource
	marketUses      = 4   // Use calls per holder per lifecycle

	ingestBatch         = 256 // transactions per SubmitBatch
	ingestResPerOwner   = 15  // registerResource txs after each registerPod
	ingestOwnersInBatch = ingestBatch / (1 + ingestResPerOwner)

	browseOwners    = 4
	browseConsumers = 8
	browseCatalog   = 240 // resources published during set-up
	browseHoldings  = 30  // resources each consumer accesses during set-up
	browseIndex     = 4   // point lookups per round
	browseFetch     = 4   // signed re-fetches per round
	browseUses      = 4   // TEE Use calls per round
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// token is a short seed-derived name component, so different seeds
// produce different IRIs.
func token(rng *rand.Rand) string { return fmt.Sprintf("%08x", rng.Uint32()) }

func payload(rng *rand.Rand) []byte {
	b := make([]byte, payloadSize)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// resourceSpec is one resource an owner uploads and publishes.
type resourceSpec struct {
	Owner       int
	Path        string
	Description string
	Payload     []byte
}

func genResource(rng *rand.Rand, owner int, kind string, i int) resourceSpec {
	return resourceSpec{
		Owner:       owner,
		Path:        fmt.Sprintf("/%s/%05d-%s.bin", kind, i, token(rng)),
		Description: fmt.Sprintf("%s dataset %d (%s)", kind, i, token(rng)),
		Payload:     payload(rng),
	}
}

// pick returns k distinct indices below n in seeded order.
func pick(rng *rand.Rand, n, k int) []int {
	return rng.Perm(n)[:k]
}

// lifecycleSpec is one market round: a new resource and the consumers
// that buy it.
type lifecycleSpec struct {
	Resource resourceSpec
	Holders  []int
}

type marketInputs struct {
	Catalog    []resourceSpec
	Lifecycles []lifecycleSpec
}

func genMarket(seed uint64, rounds int) marketInputs {
	rng := newRand(seed, 1)
	var in marketInputs
	for i := range marketCatalog {
		in.Catalog = append(in.Catalog, genResource(rng, i%marketOwners, "catalog", i))
	}
	for i := range rounds {
		in.Lifecycles = append(in.Lifecycles, lifecycleSpec{
			Resource: genResource(rng, i%marketOwners, "market", i),
			Holders:  pick(rng, marketConsumers, marketHolders),
		})
	}
	return in
}

// ingestOwner is one owner's onboarding: a pod and its resources.
type ingestOwner struct {
	WebID     string
	Location  string
	Resources []string // resource IRIs
}

// ingestInputs holds one batch of owners per round.
type ingestInputs struct {
	Owners []ingestOwner
}

func genIngest(seed uint64, rounds int) ingestInputs {
	rng := newRand(seed, 2)
	var in ingestInputs
	for i := range rounds * ingestOwnersInBatch {
		base := fmt.Sprintf("https://owner%05d-%s.example/", i, token(rng))
		o := ingestOwner{WebID: base + "profile#me", Location: base}
		for j := range ingestResPerOwner {
			o.Resources = append(o.Resources, fmt.Sprintf("%sdata/%02d-%s.ttl", base, j, token(rng)))
		}
		in.Owners = append(in.Owners, o)
	}
	return in
}

// holding names a consumer and a catalog resource it accessed.
type holding struct {
	Consumer int
	Resource int
}

type browseRound struct {
	Index []int     // catalog resources looked up by IRI
	Fetch []holding // signed pod re-fetches with a fresh certificate
	Use   []holding // TEE Use calls on held copies
}

type browseInputs struct {
	Catalog  []resourceSpec
	Holdings [][]int // per consumer, the catalog resources it accessed
	Rounds   []browseRound
}

func genBrowse(seed uint64, rounds int) browseInputs {
	rng := newRand(seed, 3)
	var in browseInputs
	for i := range browseCatalog {
		in.Catalog = append(in.Catalog, genResource(rng, i%browseOwners, "browse", i))
	}
	for range browseConsumers {
		in.Holdings = append(in.Holdings, pick(rng, browseCatalog, browseHoldings))
	}
	held := func() holding {
		c := rng.IntN(browseConsumers)
		return holding{Consumer: c, Resource: in.Holdings[c][rng.IntN(browseHoldings)]}
	}
	for range rounds {
		var r browseRound
		r.Index = pick(rng, browseCatalog, browseIndex)
		for range browseFetch {
			r.Fetch = append(r.Fetch, held())
		}
		for range browseUses {
			r.Use = append(r.Use, held())
		}
		in.Rounds = append(in.Rounds, r)
	}
	return in
}
