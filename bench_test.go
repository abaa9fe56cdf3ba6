package msplayer_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment from
// internal/bench with a small repetition count per iteration and
// reports the headline quantities of the paper as custom metrics
// (medians in seconds, shares in percent), so
//
//	go test -bench=. -benchmem
//
// prints a compact reproduction of the whole evaluation. cmd/benchall
// runs the same experiments with full repetition counts and prints the
// complete rows; internal/bench/testdata/figures.golden pins their
// values at seed 1, 3 reps. These benchmarks gate nothing: host
// performance is measured by benchmark/ (bash benchmark/run.sh).

import (
	"io"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchOpt keeps per-iteration work bounded; seeds vary per iteration.
func benchOpt(i int) bench.Options { return bench.Options{Reps: 2, Seed: int64(i)*97 + 1} }

func BenchmarkFig1Handshake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig1(io.Discard, benchOpt(i))
		if len(rows) == 3 {
			b.ReportMetric(rows[1].EtaMeasured.Seconds()*1000, "eta_theta2_ms")
			b.ReportMetric(rows[1].EtaModel.Seconds()*1000, "eta_model_ms")
			b.ReportMetric(rows[1].PsiMeasured.Seconds()*1000, "psi_theta2_ms")
		}
	}
}

func BenchmarkFig2PreBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.Fig2(io.Discard, benchOpt(i))
		if len(s) == 3 {
			b.ReportMetric(s[0].Summary.Median, "wifi_med_s")
			b.ReportMetric(s[1].Summary.Median, "lte_med_s")
			b.ReportMetric(s[2].Summary.Median, "msplayer_med_s")
		}
	}
}

func BenchmarkFig3Schedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := bench.Fig3(io.Discard, bench.Options{Reps: 1, Seed: int64(i)*97 + 1})
		// Headline: harmonic vs ratio at 256KB / 40s.
		for _, c := range cells {
			if c.PreBuffer == 40*time.Second && c.Chunk == 256<<10 {
				switch c.Scheduler {
				case "harmonic":
					b.ReportMetric(c.Series.Summary.Median, "harmonic_256K_40s_s")
				case "ratio":
					b.ReportMetric(c.Series.Summary.Median, "ratio_256K_40s_s")
				}
			}
		}
	}
}

func BenchmarkFig4YouTubePreBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4(io.Discard, benchOpt(i))
		if len(rows) == 3 {
			b.ReportMetric(rows[1].MSPlayer.Summary.Median, "msplayer_40s_med_s")
			b.ReportMetric(rows[1].Reduction*100, "reduction_40s_pct")
		}
	}
}

func BenchmarkFig5ReBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig5For(io.Discard, benchOpt(i), 20*time.Second)
		if len(rows) == 1 {
			b.ReportMetric(rows[0].WiFi64.Summary.Median, "wifi64_med_s")
			b.ReportMetric(rows[0].WiFi256.Summary.Median, "wifi256_med_s")
			b.ReportMetric(rows[0].MSPlayer.Summary.Median, "msplayer_med_s")
		}
	}
}

func BenchmarkTable1TrafficShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(io.Discard, benchOpt(i))
		if len(rows) == 3 {
			b.ReportMetric(rows[1].PreMean*100, "wifi_pre_40s_pct")
			b.ReportMetric(rows[1].ReMean*100, "wifi_re_40s_pct")
		}
	}
}

func BenchmarkMobilityFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bench.Mobility(io.Discard, bench.Options{Reps: 1, Seed: int64(i)*97 + 1})
		if len(res) == 2 {
			b.ReportMetric(res[0].MeanStallSecs, "msplayer_stall_s")
			b.ReportMetric(res[1].MeanStallSecs, "wifionly_stall_s")
		}
	}
}

func BenchmarkAblationOutOfOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.AblationOutOfOrder(io.Discard, bench.Options{Reps: 1, Seed: int64(i)*97 + 1})
		if len(s) == 3 {
			b.ReportMetric(s[0].Summary.Median, "ooo1_med_s")
			b.ReportMetric(s[2].Summary.Median, "ooo16_med_s")
		}
	}
}

func BenchmarkAblationHeadStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.AblationHeadStart(io.Discard, bench.Options{Reps: 1, Seed: int64(i)*97 + 1})
		if len(s) == 2 {
			b.ReportMetric(s[0].Summary.Median, "lead_paper_s")
			b.ReportMetric(s[1].Summary.Median, "lead_theta1_s")
		}
	}
}
