package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/store"
)

// monitoringGrace is how long a monitoring round may wait for evidence.
const monitoringGrace = 5 * time.Second

// marketWorkload runs the paper's data-market lifecycle on a durable
// one-validator deployment: every Fig. 2 process, both oracles and the
// TEEs, with chain writes mixed with pod and chain reads.
var marketWorkload = workload{
	name:      "market",
	perSecond: 75,
	headline:  "core.access",
	setup:     setupMarket,
}

// market is a set-up market deployment. Its consumers' signed clients
// serve the step-by-step Access of traced runs.
type market struct {
	d         *core.Deployment
	in        marketInputs
	owners    []*core.Owner
	consumers []*core.Consumer
	clients   []*solid.Client
	published []string // IRIs of every resource published, set-up included
	accesses  uint64   // successful Access operations in the timed part
	payments0 uint64
}

// durableDeployment boots a deployment whose validators keep a WAL with
// interval fsync under dir.
func durableDeployment(validators int, dir string, reg *obs.Registry) (*core.Deployment, error) {
	return core.NewDeployment(core.Config{
		Validators:      validators,
		DataDir:         dir,
		WALSync:         store.SyncInterval,
		MonitoringGrace: monitoringGrace,
		Obs:             reg,
	})
}

// provision creates owners with initialized pods and consumers with
// registered devices.
func provision(ctx context.Context, d *core.Deployment, nOwners, nConsumers int) ([]*core.Owner, []*core.Consumer, error) {
	var owners []*core.Owner
	for i := range nOwners {
		o, err := d.NewOwner(fmt.Sprintf("owner%d", i))
		if err != nil {
			return nil, nil, err
		}
		if err := o.InitializePod(ctx, nil); err != nil {
			return nil, nil, err
		}
		owners = append(owners, o)
	}
	var consumers []*core.Consumer
	for i := range nConsumers {
		c, err := d.NewConsumer(fmt.Sprintf("consumer%d", i), policy.PurposeAny)
		if err != nil {
			return nil, nil, err
		}
		consumers = append(consumers, c)
	}
	return owners, consumers, nil
}

// publish uploads a resource to its owner's pod and publishes it with a
// version-1 policy.
func publish(ctx context.Context, o *core.Owner, spec resourceSpec) (string, error) {
	if err := o.AddResource(spec.Path, "application/octet-stream", spec.Payload); err != nil {
		return "", err
	}
	return o.Publish(ctx, spec.Path, spec.Description, o.NewPolicy(spec.Path))
}

func setupMarket(cfg runConfig, dir string, reg *obs.Registry) (instance, error) {
	ctx := context.Background()
	d, err := durableDeployment(1, dir, reg)
	if err != nil {
		return nil, err
	}
	m := &market{d: d, in: genMarket(cfg.seed, cfg.rounds)}
	if m.owners, m.consumers, err = provision(ctx, d, marketOwners, marketConsumers); err != nil {
		d.Close()
		return nil, err
	}
	for _, c := range m.consumers {
		m.clients = append(m.clients, solid.NewClient(c.WebID, c.Key, d.Clock))
	}
	for _, spec := range m.in.Catalog {
		iri, err := publish(ctx, m.owners[spec.Owner], spec)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("publish catalog: %w", err)
		}
		m.published = append(m.published, iri)
	}
	m.payments0 = d.Market.Payments()
	return m, nil
}

func (m *market) close() { m.d.Close() }

// round is one lifecycle: publish a new resource; grant it to the seeded
// holders, each of which accesses it and uses it marketUses times; raise
// its policy to version 2 and wait until every holder enforces it; run a
// monitoring round. Every Owner/Consumer call is one operation.
func (m *market) round(r *recorder, i int) {
	lc := m.in.Lifecycles[i]
	spec := lc.Resource
	o := m.owners[spec.Owner]
	iri := o.Manager.ResourceIRI(spec.Path)

	r.op("core.upload", 1, func(context.Context) error {
		return o.AddResource(spec.Path, "application/octet-stream", spec.Payload)
	})
	if r.op("core.publish", 1, func(ctx context.Context) error {
		_, err := o.Publish(ctx, spec.Path, spec.Description, o.NewPolicy(spec.Path))
		return err
	}) {
		m.published = append(m.published, iri)
	}
	for _, h := range lc.Holders {
		c := m.consumers[h]
		r.op("core.grant", 1, func(ctx context.Context) error {
			return o.Grant(ctx, c, spec.Path, policy.PurposeAny)
		})
	}
	for _, h := range lc.Holders {
		if r.op("core.access", 1, func(ctx context.Context) error { return m.access(ctx, r, h, iri, spec.Payload) }) {
			m.accesses++
		}
		c := m.consumers[h]
		for range marketUses {
			r.op("core.use", 1, func(context.Context) error {
				data, err := c.Use(iri, policy.ActionUse)
				if err == nil {
					r.check(checkPayload("use "+iri, spec.Payload, data))
				}
				return err
			})
		}
	}

	v2 := o.NewPolicy(spec.Path)
	v2.Version = 2
	var modified time.Time
	r.op("core.policy_update", 1, func(ctx context.Context) error {
		return r.step("podmanager.modify_policy", func() error {
			err := o.ModifyPolicy(ctx, spec.Path, v2)
			modified = time.Now()
			return err
		})
	})
	propagated := true
	for _, h := range lc.Holders {
		c := m.consumers[h]
		propagated = r.op("core.wait_policy", 1, func(context.Context) error {
			if err := c.WaitPolicyVersion(iri, 2, monitoringGrace); err != nil {
				return err
			}
			r.check(checkCount("policy version held by "+string(c.WebID), c.App.PolicyVersion(iri), 2))
			return nil
		}) && propagated
	}
	if propagated && !modified.IsZero() {
		r.observe("core.policy_propagation", time.Since(modified))
	}

	holders := make([]cryptoutil.Address, len(lc.Holders))
	for j, h := range lc.Holders {
		holders[j] = m.consumers[h].Device.Address()
	}
	r.op("core.monitor", 1, func(ctx context.Context) error {
		evidence, violations, err := m.monitor(ctx, r, o, spec.Path)
		if err == nil {
			// A lifecycle's resource is monitored once: its first round.
			r.check(checkEvidence(iri, 1, evidence, violations, holders, marketUses, 2))
		}
		return err
	})
}

// access is Consumer.Access; traced, it performs the same public calls
// one by one, each in its own span: index the resource through the
// pull-out oracle, pay the market fee, fetch it from the owner's pod with
// the payment certificate and a TEE quote, store the copy in the TEE and
// confirm the retrieval on-chain.
func (m *market) access(ctx context.Context, r *recorder, h int, iri string, want []byte) error {
	c := m.consumers[h]
	if r.tr == nil {
		if err := c.Access(ctx, iri); err != nil {
			return err
		}
		if !c.App.Holds(iri) {
			r.check(fmt.Errorf("access %s: the TEE holds no copy", iri))
		}
		return nil
	}
	record, err := index(m.d, r, iri)
	if err != nil {
		return err
	}
	data, err := signedFetch(m.d, r, c, m.clients[h], iri, record.Location)
	if err != nil {
		return err
	}
	r.check(checkPayload("access "+iri, want, data))
	if err := r.step("tee.store", func() error { return c.App.StoreResource(iri, data, record.Policy) }); err != nil {
		return err
	}
	return r.step("distexchange.confirm_retrieval", func() error {
		_, err := c.DE.ConfirmRetrieval(ctx, iri)
		return err
	})
}

// index is Consumer.Index with the pull-out oracle query in its own span.
func index(d *core.Deployment, r *recorder, iri string) (distexchange.ResourceRecord, error) {
	var rec distexchange.ResourceRecord
	args, err := json.Marshal(distexchange.GetResourceArgs{ResourceIRI: iri})
	if err != nil {
		return rec, err
	}
	var reply []byte
	if err := r.step("oracle.pull_out_query", func() error {
		var err error
		reply, err = d.PullOutOracle().Query(d.DEAddr, "getResource", args)
		return err
	}); err != nil {
		return rec, err
	}
	err = json.Unmarshal(reply, &rec)
	return rec, err
}

// signedFetch pays the market fee for iri and fetches location with the
// fresh payment certificate and the consumer's TEE quote attached.
func signedFetch(d *core.Deployment, r *recorder, c *core.Consumer, client *solid.Client, iri, location string) ([]byte, error) {
	var cert *cryptoutil.Certificate
	if err := r.step("market.pay_fee", func() error {
		var err error
		cert, err = d.Market.PayFee(string(c.WebID), iri)
		return err
	}); err != nil {
		return nil, err
	}
	decorate, err := podmanager.AttachCertificate(cert)
	if err != nil {
		return nil, err
	}
	client.Decorate = podmanager.Decorators(decorate, podmanager.AttachTEEQuote(c.Device))
	var data []byte
	err = r.step("solid.get", func() error {
		var err error
		data, _, err = client.Get(location)
		return err
	})
	return data, err
}

// monitor is Owner.Monitor; traced, its three podmanager steps get their
// own spans.
func (m *market) monitor(ctx context.Context, r *recorder, o *core.Owner, path string) ([]distexchange.EvidenceRecord, []distexchange.Violation, error) {
	if r.tr == nil {
		return o.Monitor(ctx, path)
	}
	var round distexchange.MonitoringRound
	if err := r.step("podmanager.start_monitoring", func() error {
		var err error
		round, err = o.Manager.StartMonitoring(ctx, path)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := r.step("podmanager.round_wait", func() error {
		_, err := o.Manager.WaitForRoundClosure(path, round.Round, monitoringGrace)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var ev []distexchange.EvidenceRecord
	var viol []distexchange.Violation
	err := r.step("podmanager.collect", func() error {
		var err error
		ev, viol, err = o.Manager.CollectMonitoring(ctx, path, round.Round)
		return err
	})
	return ev, viol, err
}

func (m *market) check(r *recorder) {
	catalog, err := m.consumers[0].ListCatalog()
	if err != nil {
		r.check(fmt.Errorf("list catalog: %w", err))
	} else {
		r.check(checkCatalog(catalog, m.published))
	}
	r.check(checkCount("market payments", m.d.Market.Payments()-m.payments0, m.accesses))
}
