package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Plain-text rendering of experiment results: one aligned table per figure,
// in the same rows/series the paper's charts plot, plus CSV output for
// external plotting.

// fmtDur renders a duration with sensible rounding for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// WriteComponentTable renders component rows (Figs 2/3/5/6).
func WriteComponentTable(w io.Writer, title string, rows []ComponentRow) error {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tclient encrypt\tserver compute\tcommunication\tclient decrypt\ttotal\tpreproc (offline)\tbytes up\tbytes down")
	for _, r := range rows {
		pre := "-"
		if r.Preprocess > 0 {
			pre = fmtDur(r.Preprocess)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
			r.N, fmtDur(r.ClientEncrypt), fmtDur(r.ServerCompute), fmtDur(r.Communication),
			fmtDur(r.ClientDecrypt), fmtDur(r.Total), pre, r.BytesUp, r.BytesDown)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range rows {
		if r.OnlineFallbacks > 0 {
			fmt.Fprintf(w, "warning: n=%d drew %d index bits via online encryption — preprocessing pool drained, client-encrypt time mixes pooled and online costs\n",
				r.N, r.OnlineFallbacks)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteComparisonTable renders comparison rows (Figs 4/7/9).
func WriteComparisonTable(w io.Writer, title, baselineName, variantName string, rows []ComparisonRow) error {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\t%s\t%s\treduction\tspeedup\n", baselineName, variantName)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\t%.2fx\n",
			r.N, fmtDur(r.Baseline), fmtDur(r.Variant), 100*r.Reduction(), r.Speedup())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteYaoTable renders the Section 2 general-SMC comparison.
func WriteYaoTable(w io.Writer, rows []YaoRow) error {
	title := "Selected sum vs. general SMC (Yao/Fairplay cost model), short distance"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tthis protocol\tYao (modern)\tYao (2004 Fairplay)\tgates\tYao wire bytes\tbandwidth ratio\tera time ratio")
	for _, r := range rows {
		bw := float64(r.YaoWireBytes) // vs the private protocol's n ciphertexts
		privBytes := float64(r.N) * 128
		era := float64(r.YaoEra) / float64(r.Private)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%.0fx\t%.0fx\n",
			r.N, fmtDur(r.Private), fmtDur(r.YaoEstimate), fmtDur(r.YaoEra),
			r.YaoGates, r.YaoWireBytes, bw/privBytes, era)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteAblationTable renders the cryptosystem ablation.
func WriteAblationTable(w io.Writer, n int, rows []AblationRow) error {
	title := fmt.Sprintf("Cryptosystem ablation, n=%d (identical workload, small values)", n)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tclient encrypt\tserver compute\tclient decrypt\twire bytes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n",
			r.Variant, fmtDur(r.Client), fmtDur(r.Server), fmtDur(r.Decrypt), r.Bytes)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteChunkTable renders the chunk-size sensitivity sweep.
func WriteChunkTable(w io.Writer, n int, link string, rows []ChunkRow) error {
	title := fmt.Sprintf("Chunk-size sensitivity, n=%d, %s", n, link)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "chunk size\tchunks\ttotal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%s\n", r.ChunkSize, r.Chunks, fmtDur(r.Total))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteBaselineTable renders the private protocol against the two trivial
// non-private protocols.
func WriteBaselineTable(w io.Writer, link string, rows []BaselineRow) error {
	title := fmt.Sprintf("Privacy cost vs. trivial protocols, %s", link)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tprivate\tsend-indices (leaks query)\tdownload-db (leaks data)\tprivate bytes\tsend-idx bytes\tdownload bytes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\n",
			r.N, fmtDur(r.Private), fmtDur(r.SendIdx), fmtDur(r.Download),
			r.PrivateBytes, r.SendIdxBytes, r.DownloadBytes)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteDecryptTable renders the CRT-vs-naive decryption ablation.
func WriteDecryptTable(w io.Writer, d *DecryptAblation) error {
	title := fmt.Sprintf("Paillier decryption ablation, %d-bit keys, %d decryptions", d.KeyBits, d.Iterations)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	speedup := float64(d.Naive) / float64(d.CRT)
	_, err := fmt.Fprintf(w, "CRT: %s   textbook: %s   speedup: %.2fx\n\n",
		fmtDur(d.CRT), fmtDur(d.Naive), speedup)
	return err
}

// WriteScalingTable renders the server-parallelism ablation.
func WriteScalingTable(w io.Writer, n int, rows []ScalingRow) error {
	title := fmt.Sprintf("Server fold parallelism, n=%d", n)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tserver compute\tspeedup")
	base := time.Duration(0)
	for i, r := range rows {
		if i == 0 {
			base = r.ServerCompute
		}
		speedup := float64(base) / float64(r.ServerCompute)
		fmt.Fprintf(tw, "%d\t%s\t%.2fx\n", r.Workers, fmtDur(r.ServerCompute), speedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteFoldTable renders the server-fold ablation: per session length, every
// variant's total and per-row time, its speedup over the naive loop, and its
// heap allocations per row.
func WriteFoldTable(w io.Writer, rows []FoldRow) error {
	title := "Server fold ablation: naive ScalarMul+Add vs. bucket multi-exponentiation"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rows\tvariant\ttotal\tper row\tspeedup\tallocs/row")
	naive := map[int]time.Duration{}
	for _, r := range rows {
		if r.Variant == "naive" {
			naive[r.Rows] = r.Time
		}
	}
	for _, r := range rows {
		speedup := "-"
		if base, ok := naive[r.Rows]; ok && r.Time > 0 && r.Variant != "naive" {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(r.Time))
		}
		// Per-row times are a few µs: whole microseconds would hide the
		// differences the table is for.
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2fµs\t%s\t%.2f\n",
			r.Rows, r.Variant, fmtDur(r.Time), float64(r.PerRow())/float64(time.Microsecond), speedup, r.MallocsPerRow())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FoldCSV writes fold-ablation rows as CSV.
func FoldCSV(w io.Writer, rows []FoldRow) error {
	if _, err := fmt.Fprintln(w, "rows,variant,window,workers,total_ms,ns_per_row,mallocs_per_row"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%.3f,%.0f,%.2f\n",
			r.Rows, r.Variant, r.Window, r.Workers,
			float64(r.Time)/float64(time.Millisecond), float64(r.PerRow()), r.MallocsPerRow()); err != nil {
			return err
		}
	}
	return nil
}

// WriteClientEncryptTable renders the client-encrypt ablation: per count,
// every variant's total and per-encryption time plus its speedup over the
// public-key path.
func WriteClientEncryptTable(w io.Writer, rows []ClientEncryptRow) error {
	title := "Client encrypt ablation: public-key path vs. owner CRT vs. CRT-filled pool"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "count\tvariant\ttotal\tper enc\tspeedup")
	naive := map[int]time.Duration{}
	for _, r := range rows {
		if r.Variant == "naive" {
			naive[r.Count] = r.Time
		}
	}
	for _, r := range rows {
		speedup := "-"
		if base, ok := naive[r.Count]; ok && r.Time > 0 && r.Variant != "naive" {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(r.Time))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			r.Count, r.Variant, fmtDur(r.Time), fmtDur(r.PerOp()), speedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ClientEncryptCSV writes client-encrypt ablation rows as CSV.
func ClientEncryptCSV(w io.Writer, rows []ClientEncryptRow) error {
	if _, err := fmt.Fprintln(w, "count,variant,total_ms,ns_per_enc"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%s,%.3f,%.0f\n",
			r.Count, r.Variant,
			float64(r.Time)/float64(time.Millisecond), float64(r.PerOp())); err != nil {
			return err
		}
	}
	return nil
}

// WritePreprocTable renders the preprocessing drain-and-overrun ablation.
func WritePreprocTable(w io.Writer, rows []PreprocRow) error {
	title := "Preprocessing pools under overrun (§3.3): pooled vs. online draw cost"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pool\tstocked\tdraws\tfallbacks\tpooled phase\tonline phase\tper-draw pooled\tper-draw online")
	for _, r := range rows {
		perPooled, perOnline := time.Duration(0), time.Duration(0)
		if r.Stocked > 0 {
			perPooled = r.PooledTime / time.Duration(r.Stocked)
		}
		if r.Fallbacks > 0 {
			perOnline = r.OnlineTime / time.Duration(r.Fallbacks)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
			r.Pool, r.Stocked, r.Draws, r.Fallbacks,
			fmtDur(r.PooledTime), fmtDur(r.OnlineTime), fmtDur(perPooled), fmtDur(perOnline))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ComponentCSV writes component rows as CSV (for external plotting).
func ComponentCSV(w io.Writer, rows []ComponentRow) error {
	if _, err := fmt.Fprintln(w, "n,client_encrypt_ms,server_compute_ms,communication_ms,client_decrypt_ms,total_ms,preprocess_ms,bytes_up,bytes_down,online_fallbacks"); err != nil {
		return err
	}
	for _, r := range rows {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d,%d\n",
			r.N, ms(r.ClientEncrypt), ms(r.ServerCompute), ms(r.Communication),
			ms(r.ClientDecrypt), ms(r.Total), ms(r.Preprocess), r.BytesUp, r.BytesDown, r.OnlineFallbacks); err != nil {
			return err
		}
	}
	return nil
}

// ComparisonCSV writes comparison rows as CSV.
func ComparisonCSV(w io.Writer, rows []ComparisonRow) error {
	if _, err := fmt.Fprintln(w, "n,baseline_ms,variant_ms,reduction,speedup"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%.4f,%.4f\n",
			r.N, float64(r.Baseline)/float64(time.Millisecond),
			float64(r.Variant)/float64(time.Millisecond), r.Reduction(), r.Speedup()); err != nil {
			return err
		}
	}
	return nil
}

// WritePreprocServiceTable renders the preprocessing-as-a-service
// comparison: online encryption with and without a stockd feed.
func WritePreprocServiceTable(w io.Writer, rows []PreprocServiceRow) error {
	title := "Preprocessing as a service (§3.3): client online encryption, stockd-fed vs. online"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tonline encrypt\tstockd-fed encrypt\treduction\tprime (offline)\tfallbacks")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\t%s\t%d\n",
			r.N, fmtDur(r.BaselineEncrypt), fmtDur(r.StockedEncrypt),
			r.ReductionPct, fmtDur(r.Prime), r.Fallbacks)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
