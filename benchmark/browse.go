package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/solid"
)

// browseWorkload is read-only market browsing on a durable three-validator
// deployment: catalog listings, point index lookups, signed pod re-fetches
// and TEE uses. No timed operation writes to the chain, so it isolates the
// read paths market's writes hide: contract reads through the pull-out
// oracle, and the pod host's signature check and ACL decision cache.
var browseWorkload = workload{
	name:      "browse",
	perSecond: 80,
	headline:  "core.fetch",
	setup:     setupBrowse,
}

type browse struct {
	d         *core.Deployment
	in        browseInputs
	consumers []*core.Consumer
	clients   []*solid.Client
	iris      []string // catalog IRIs, by catalog index
	height    uint64   // chain height when the timed part starts
}

func setupBrowse(cfg runConfig, dir string, reg *obs.Registry) (instance, error) {
	ctx := context.Background()
	d, err := durableDeployment(3, dir, reg)
	if err != nil {
		return nil, err
	}
	b := &browse{d: d, in: genBrowse(cfg.seed, cfg.rounds)}
	fail := func(err error) (instance, error) {
		d.Close()
		return nil, err
	}
	owners, consumers, err := provision(ctx, d, browseOwners, browseConsumers)
	if err != nil {
		return fail(err)
	}
	b.consumers = consumers
	for _, c := range consumers {
		b.clients = append(b.clients, solid.NewClient(c.WebID, c.Key, d.Clock))
	}
	for _, spec := range b.in.Catalog {
		iri, err := publish(ctx, owners[spec.Owner], spec)
		if err != nil {
			return fail(fmt.Errorf("publish catalog: %w", err))
		}
		b.iris = append(b.iris, iri)
	}
	for ci, held := range b.in.Holdings {
		c := consumers[ci]
		for _, ri := range held {
			spec := b.in.Catalog[ri]
			if err := owners[spec.Owner].Grant(ctx, c, spec.Path, policy.PurposeAny); err != nil {
				return fail(fmt.Errorf("grant: %w", err))
			}
			if err := c.Access(ctx, b.iris[ri]); err != nil {
				return fail(fmt.Errorf("access: %w", err))
			}
		}
	}
	b.height = d.Nodes[0].Height()
	return b, nil
}

func (b *browse) close() { b.d.Close() }

// round is one listing, browseIndex lookups, browseFetch signed re-fetches
// and browseUses TEE uses. Each read is one operation.
func (b *browse) round(r *recorder, i int) {
	spec := b.in.Rounds[i]
	lister := b.consumers[i%len(b.consumers)]
	r.op("core.catalog", 1, func(context.Context) error {
		records, err := lister.ListCatalog()
		if err == nil {
			r.check(checkCatalog(records, b.iris))
		}
		return err
	})
	for _, ri := range spec.Index {
		iri := b.iris[ri]
		r.op("core.index", 1, func(context.Context) error {
			rec, err := index(b.d, r, iri)
			if err == nil {
				r.check(checkIndex(rec, iri, iri))
			}
			return err
		})
	}
	for _, h := range spec.Fetch {
		iri := b.iris[h.Resource]
		r.op("core.fetch", 1, func(context.Context) error {
			data, err := signedFetch(b.d, r, b.consumers[h.Consumer], b.clients[h.Consumer], iri, iri)
			if err == nil {
				r.check(checkPayload("fetch "+iri, b.in.Catalog[h.Resource].Payload, data))
			}
			return err
		})
	}
	for _, h := range spec.Use {
		iri := b.iris[h.Resource]
		r.op("core.use", 1, func(context.Context) error {
			data, err := b.consumers[h.Consumer].Use(iri, policy.ActionUse)
			if err == nil {
				r.check(checkPayload("use "+iri, b.in.Catalog[h.Resource].Payload, data))
			}
			return err
		})
	}
}

func (b *browse) check(r *recorder) {
	for v, n := range b.d.Nodes {
		r.check(checkCount(fmt.Sprintf("validator %d height after the read-only timed part", v), n.Height(), b.height))
	}
	r.check(checkAgreement(b.d.Nodes))
}
