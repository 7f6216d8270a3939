package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"privstats/internal/database"
	"privstats/internal/durable"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/mathx"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/stock"
	"privstats/internal/wire"
)

// timeCall returns the median time of one call of fn, scaled: fn runs in
// batches of about a millisecond until budget is spent (at least three
// batches), between two bursts, and the median batch is divided by its size.
func timeCall(budget time.Duration, fn func()) time.Duration {
	before, _ := burst()
	start := time.Now()
	fn()
	first := time.Since(start)
	batch := 1
	if first < time.Millisecond {
		batch = int(time.Millisecond/(first+1)) + 1
	}
	var per []time.Duration
	deadline := start.Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, time.Since(t0)/time.Duration(batch))
	}
	after, _ := burst()
	sortDurations(per)
	return scale(median(per), before, after)
}

// timeOnce returns the scaled time of a single call of fn.
func timeOnce(fn func()) time.Duration {
	before, _ := burst()
	start := time.Now()
	fn()
	took := time.Since(start)
	after, _ := burst()
	return scale(took, before, after)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// microProbes times the lower layers' public functions on the workload's key,
// table, chunk size and storage kind. budget is per probe.
func microProbes(env *probeEnv, budget time.Duration, workDir string, out map[string]metric) error {
	sk, sl, cs := env.sk, env.slab, env.store
	pk := sk.Public()
	n2 := pk.NSquared
	one := big.NewInt(1)
	rows := env.chunk
	// A timed closure cannot return an error; the first one is kept and fails
	// the probes as a whole.
	var firstErr error
	check := func(_ any, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// One chunk of the workload: ciphertexts, their wire encoding, and the
	// widest scalars the workload folds against them.
	cts := make([]*paillier.Ciphertext, rows)
	bases := make([]*big.Int, rows)
	var body []byte
	for i := range cts {
		var ct *paillier.Ciphertext
		if sl != nil {
			ct = sl.bits[i%2][i/2]
		} else if ct, firstErr = sk.EncryptCRT(one); firstErr != nil {
			return firstErr
		}
		cts[i], bases[i] = ct, ct.Value()
		body = ct.AppendBytes(body)
	}
	col := env.table.Column()
	if env.w.foldsSquares() {
		col = env.table.SquareColumn()
	}
	scalars := make([]uint64, rows)
	maxBits := 0
	for i := range scalars {
		scalars[i] = col.At(i)
		maxBits = max(maxBits, big.NewInt(0).SetUint64(scalars[i]).BitLen())
	}
	perRow := func(d time.Duration) float64 { return float64(d) / float64(rows) }

	// mathx
	window := mathx.PickMultiExpWindow(rows, maxBits)
	out["mathx.multiexp_window"] = metric{float64(window), "count"}
	out["mathx.multiexp_ns_per_row"] = metric{perRow(timeCall(budget, func() {
		check(mathx.MultiExp(bases, scalars, n2, window))
	})), "ns"}
	crt, err := mathx.NewCRT(sk.P, sk.Q)
	if err != nil {
		return err
	}
	base, err := mathx.RandUnit(rand.Reader, pk.N)
	if err != nil {
		return err
	}
	exp, err := mathx.RandInt(rand.Reader, pk.N)
	if err != nil {
		return err
	}
	out["mathx.expcrt_us"] = metric{us(timeCall(budget, func() { crt.ExpCRT(base, exp) })), "us"}
	fixed, err := mathx.NewFixedBaseExp(base, n2, pk.N.BitLen(), 6)
	if err != nil {
		return err
	}
	out["mathx.fixedbase_exp_us"] = metric{us(timeCall(budget, func() { check(fixed.Exp(exp)) })), "us"}
	prod := new(big.Int)
	out["mathx.mulmod_ns"] = metric{float64(timeCall(budget, func() {
		prod.Mul(bases[0], bases[rows-1])
		prod.Mod(prod, n2)
	})), "ns"}

	// paillier
	out["paillier.encrypt_crt_us"] = metric{us(timeCall(budget, func() { check(sk.EncryptCRT(one)) })), "us"}
	out["paillier.encrypt_public_us"] = metric{us(timeCall(budget, func() { check(pk.Encrypt(one)) })), "us"}
	const stocked = 64
	store := paillier.NewBitStoreOwner(sk)
	if err := store.Fill(stocked, stocked); err != nil {
		return err
	}
	out["paillier.encrypt_pooled_us"] = metric{us(timeOnce(func() {
		for i := 0; i < 2*stocked; i++ {
			check(store.DrawBit(uint(i % 2)))
		}
	}) / (2 * stocked)), "us"}
	out["paillier.fold_ns_per_row"] = metric{perRow(timeCall(budget, func() {
		check(pk.FoldScalarMul(cts, scalars, 1))
	})), "ns"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check(pk.FoldScalarMul(cts, scalars, 1))
	runtime.ReadMemStats(&after)
	out["paillier.fold_mallocs_per_row"] = metric{float64(after.Mallocs-before.Mallocs) / float64(rows), "count"}
	width := pk.CiphertextSize()
	out["paillier.parse_ct_ns"] = metric{float64(timeCall(budget, func() { check(pk.ParseCiphertext(body[:width])) })), "ns"}
	out["paillier.rerandomize_us"] = metric{us(timeCall(budget, func() { check(pk.Rerandomize(cts[0])) })), "us"}
	out["paillier.decrypt_us"] = metric{us(timeCall(budget, func() { check(sk.Decrypt(cts[0])) })), "us"}

	// wire
	chunk := &wire.IndexChunk{Ciphertexts: body, Width: width}
	payload := chunk.Encode()
	out["wire.chunk_encode_ns_per_row"] = metric{perRow(timeCall(budget, func() { chunk.Encode() })), "ns"}
	out["wire.chunk_decode_ns_per_row"] = metric{perRow(timeCall(budget, func() {
		check(wire.DecodeIndexChunk(payload, width))
	})), "ns"}
	a, b, closeBoth, err := loopbackPair()
	if err != nil {
		return err
	}
	out["wire.frame_rtt_us"] = metric{us(timeCall(budget, func() {
		check(transfer(a, b, wire.MsgIndexChunk, payload))
	})), "us"}
	closeBoth()
	var framed bytes.Buffer
	out["wire.crc_ns_per_kb"] = metric{float64(timeCall(budget, func() {
		framed.Reset()
		check(wire.WriteFrameCRC(&framed, wire.MsgIndexChunk, payload))
		_, _, err := wire.ReadFrame(&framed)
		check(nil, err)
	})) / (float64(len(payload)) / 1024), "ns"}
	hello, err := encodeHello(env, env.w.queries[0])
	if err != nil {
		return err
	}
	out["wire.hello_bytes"] = metric{float64(wire.FrameOverhead + len(hello)), "B"}

	// database and colstore, over the whole table
	n := env.table.Len()
	tableRow := func(d time.Duration) float64 { return float64(d) / float64(n) }
	var sink uint64
	scanColumn := func(c database.Column) func() {
		return func() {
			for i := 0; i < n; i++ {
				sink += c.At(i)
			}
		}
	}
	out["database.at_ns_per_row"] = metric{tableRow(timeCall(budget, scanColumn(env.table.Column()))), "ns"}
	out["colstore.at_ns_per_row"] = metric{tableRow(timeCall(budget, scanColumn(cs.Column()))), "ns"}
	scan := timeCall(budget, func() {
		check(nil, cs.Scan(0, n, func(vals []uint32) error {
			for _, v := range vals {
				sink += uint64(v)
			}
			return nil
		}))
	})
	out["colstore.scan_mrows_per_s"] = metric{float64(n) / scan.Seconds() / 1e6, "Mrows/s"}
	runtime.KeepAlive(sink)

	// jobs planning and the journal
	spec := &jobs.JobSpec{Op: jobs.OpVariance, Selection: jobs.SelectionSpec{Ranges: [][2]int{{0, n / 2}}}}
	schema := jobs.Schema{Rows: n, Columns: []string{"value"}}
	out["jobs.plan_us"] = metric{us(timeCall(budget, func() { check(jobs.BuildPlan(spec, schema)) })), "us"}
	queries := 0
	for _, op := range jobMix {
		mixSpec := &jobs.JobSpec{Op: op, Selection: jobs.SelectionSpec{All: true}}
		if op == jobs.OpGroupBy {
			mixSpec.Params = &jobs.GroupByParams{Labels: groupLabels(n, 0), Groups: jobGroups}
		}
		plan, err := jobs.BuildPlan(mixSpec, schema)
		if err != nil {
			return err
		}
		queries += len(plan.Steps)
	}
	out["jobs.queries_per_job"] = metric{float64(queries) / float64(len(jobMix)), "count"}
	journal, _, err := durable.Open(filepath.Join(workDir, "probe.journal"), func(byte, []byte) error { return nil })
	if err != nil {
		return err
	}
	record := make([]byte, 256)
	out["durable.append_fsync_us"] = metric{us(timeCall(budget, func() {
		check(nil, journal.Append(1, record))
	})), "us"}
	check(nil, journal.Close())
	return firstErr
}

// sessionPipe times one whole private query of the workload, client and
// server engine back to back over an in-memory pipe: the protocol without
// the runtimes around it.
func sessionPipe(env *probeEnv, pool homomorphic.EncryptorPool, seed int64) (time.Duration, error) {
	n := env.table.Len()
	sel, err := database.GenerateSelection(n, n*selectedPct/100, database.PatternRandom, seed)
	if err != nil {
		return 0, err
	}
	want, err := env.table.SelectedSum(sel)
	if err != nil {
		return 0, err
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	served := make(chan error, 1)
	var got *big.Int
	d := timeOnce(func() {
		go func() { served <- selectedsum.ServeSource(wire.NewConn(cb), env.src, nil) }()
		got, err = selectedsum.Query(wire.NewConn(ca), env.key, sel, env.w.chunk, pool)
	})
	if serveErr := <-served; err == nil {
		err = serveErr
	}
	if err != nil {
		return 0, err
	}
	if got.Cmp(want) != 0 {
		return 0, fmt.Errorf("session over pipe: got %v, oracle %v", got, want)
	}
	return d, nil
}

// stockProbe measures the preprocessing service: how fast an inventory mints
// stock under the workload's public key, and what fetching it over the stock
// protocol costs per item once the inventory is full.
func stockProbe(ctx context.Context, sk *paillier.PrivateKey, out map[string]metric) error {
	const each = 96 // zeros and ones
	inv, err := stock.NewInventory(stock.InventoryConfig{
		Targets: stock.Targets{Zeros: each, Ones: each},
		Logf:    discardLog,
	})
	if err != nil {
		return err
	}
	defer inv.Close()
	srv, err := server.NewHandler(&stock.Handler{Inv: inv}, server.Config{Logf: discardLog})
	if err != nil {
		return err
	}
	m, addr, err := startMember(srv)
	if err != nil {
		return err
	}
	defer func() {
		m.srv.Close()
		<-m.done
	}()

	pk := sk.Public()
	var refillErr error
	refill := timeOnce(func() {
		if _, refillErr = inv.Admit(pk); refillErr != nil {
			return
		}
		for deadline := time.Now().Add(60 * time.Second); ; {
			z, o, _, ok := inv.Depths(pk)
			if ok && z >= each && o >= each {
				return
			}
			if time.Now().After(deadline) {
				refillErr = fmt.Errorf("stock inventory stuck at (%d,%d) of %d each", z, o, each)
				return
			}
			select {
			case <-ctx.Done():
				refillErr = ctx.Err()
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	if refillErr != nil {
		return refillErr
	}
	out["stock.refill_items_per_s"] = metric{2 * each / refill.Seconds(), "1/s"}

	src, err := stock.NewRemoteSource(stock.RemoteSourceConfig{
		Addr: addr, Key: pk, TargetZeros: each, TargetOnes: each, Logf: discardLog,
	})
	if err != nil {
		return err
	}
	defer src.Close()
	fetch := timeOnce(func() { err = src.Prime(ctx) })
	if err != nil {
		return fmt.Errorf("priming from the stock daemon: %w", err)
	}
	out["stock.fetch_us_per_item"] = metric{us(fetch) / (2 * each), "us"}
	for i := 0; i < 2*each; i++ {
		if _, err := src.DrawBit(uint(i % 2)); err != nil {
			return err
		}
	}
	out["stock.online_fallbacks"] = metric{float64(src.OnlineFallbacks()), "count"}
	return nil
}
