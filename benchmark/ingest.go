package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/policy"
)

// ingestWorkload is bulk market onboarding on a durable three-validator
// deployment: pre-signed registerPod/registerResource transactions fed
// through Deployment.SubmitBatch. Nearly all its time is chain and store
// work; pods, TEEs and oracles stay idle.
var ingestWorkload = workload{
	name:      "ingest",
	perSecond: 7,
	headline:  "core.submit_batch",
	setup:     setupIngest,
}

type ingest struct {
	d       *core.Deployment
	in      ingestInputs
	batches [][]*chain.Tx
	hashes  [][]cryptoutil.Hash // per committed batch, as SubmitBatch returned them
	// sealHist is validator 0's seal-duration histogram (traced runs),
	// read around each SealNext to split proposer from follower time.
	sealHist *obs.Histogram
}

func setupIngest(cfg runConfig, dir string, reg *obs.Registry) (instance, error) {
	d, err := durableDeployment(3, dir, reg)
	if err != nil {
		return nil, err
	}
	w := &ingest{d: d, in: genIngest(cfg.seed, cfg.rounds), hashes: make([][]cryptoutil.Hash, cfg.rounds)}
	if reg != nil {
		w.sealHist = reg.Histogram("chain_seal_duration_ns", "")
	}
	now := d.Clock.Now()
	for b := range cfg.rounds {
		batch := make([]*chain.Tx, 0, ingestBatch)
		for _, o := range w.in.Owners[b*ingestOwnersInBatch : (b+1)*ingestOwnersInBatch] {
			txs, err := onboardingTxs(d.DEAddr, o, now)
			if err != nil {
				d.Close()
				return nil, err
			}
			batch = append(batch, txs...)
		}
		w.batches = append(w.batches, batch)
	}
	return w, nil
}

// onboardingTxs signs one owner's registerPod followed by its
// registerResource transactions, from a fresh owner key.
func onboardingTxs(de cryptoutil.Address, o ingestOwner, now time.Time) ([]*chain.Tx, error) {
	key := cryptoutil.MustGenerateKey()
	tx, err := chain.NewTx(key, 0, de, "registerPod", distexchange.RegisterPodArgs{
		OwnerWebID: o.WebID,
		Location:   o.Location,
	}, distexchange.DefaultGasLimit)
	if err != nil {
		return nil, err
	}
	txs := []*chain.Tx{tx}
	for j, iri := range o.Resources {
		tx, err := chain.NewTx(key, uint64(j+1), de, "registerResource", distexchange.RegisterResourceArgs{
			ResourceIRI: iri,
			PodWebID:    o.WebID,
			Location:    iri,
			Description: "onboarded dataset",
			Policy:      policy.New(iri, o.WebID, now),
		}, distexchange.DefaultGasLimit)
		if err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

func (w *ingest) close() { w.d.Close() }

// round submits one batch and waits until it is committed on every
// validator. Each transaction is one operation.
func (w *ingest) round(r *recorder, i int) {
	batch := w.batches[i]
	r.op("core.submit_batch", len(batch), func(context.Context) error {
		var err error
		if r.tr == nil {
			w.hashes[i], err = w.d.SubmitBatch(batch)
		} else {
			w.hashes[i], err = w.tracedSubmit(r, batch)
		}
		return err
	})
}

// tracedSubmit is SubmitBatch step by step: one cluster-wide admission,
// then consensus rounds until every mempool is drained. A round that
// validator 0 proposed also yields the followers' share of SealNext: its
// duration minus validator 0's own seal time.
func (w *ingest) tracedSubmit(r *recorder, batch []*chain.Tx) ([]cryptoutil.Hash, error) {
	var hashes []cryptoutil.Hash
	if err := r.step("chain.admit_batch", func() error {
		var err error
		hashes, err = w.d.Network.SubmitEverywhereBatch(batch)
		return err
	}); err != nil {
		return nil, err
	}
	for w.d.Network.PendingTxs() > 0 {
		n0, sum0 := w.sealHist.Count(), w.sealHist.Sum()
		start := time.Now()
		if err := r.step("chain.seal_next", func() error {
			_, err := w.d.Network.SealNext()
			return err
		}); err != nil {
			return hashes, err
		}
		total := time.Since(start)
		if w.sealHist.Count() == n0+1 {
			r.observe("chain.follower_apply", total-time.Duration(w.sealHist.Sum()-sum0))
		}
	}
	return hashes, nil
}

func (w *ingest) check(r *recorder) {
	var want []string
	for i, batch := range w.batches {
		if w.hashes[i] == nil {
			continue // the batch failed and was counted as failed
		}
		for _, o := range w.in.Owners[i*ingestOwnersInBatch : (i+1)*ingestOwnersInBatch] {
			want = append(want, o.Resources...)
		}
		for j, h := range w.hashes[i] {
			if h != batch[j].Hash() {
				r.check(fmt.Errorf("batch %d tx %d: SubmitBatch returned hash %s for tx %s", i, j, h.Short(), batch[j].Hash().Short()))
			}
			for v, n := range w.d.Nodes {
				r.check(checkReceipt(fmt.Sprintf("validator %d", v), h, n.Receipt(h)))
			}
		}
	}
	r.check(checkAgreement(w.d.Nodes))
	args, err := json.Marshal(distexchange.ListResourcesArgs{})
	if err != nil {
		r.check(err)
		return
	}
	reply, err := w.d.PullOutOracle().Query(w.d.DEAddr, "listResources", args)
	var records []distexchange.ResourceRecord
	if err == nil {
		err = json.Unmarshal(reply, &records)
	}
	if err != nil {
		r.check(fmt.Errorf("list resources: %w", err))
		return
	}
	r.check(checkCatalog(records, want))
}
