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
