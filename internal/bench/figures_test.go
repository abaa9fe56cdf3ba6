package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// figurePin is one line of testdata/figures.golden: an experiment's
// headline metric at seed 1, 3 reps, plus the paper band it must sit
// in when the experiment has one.
type figurePin struct {
	exp, metric string
	value       float64
	banded      bool
	lo, hi      float64
}

func (p figurePin) key() string { return p.exp + " " + p.metric }

// metricName turns a series label ("WiFi 64KB refill=20s",
// "theta~2.8 (paper)") into one whitespace-free golden token.
func metricName(label, suffix string) string {
	label = strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(label)
	return label + "_" + suffix
}

// figurePins runs all eight paper experiments at the pinned
// configuration and extracts their headline metrics. Virtual time makes
// every value a pure function of the seed; the parallel testbeds each
// own their clock and fill their repetition's slot, so the values do
// not depend on the core count either.
func figurePins() []figurePin {
	opt := Options{Seed: 1, Reps: 3}
	var pins []figurePin
	add := func(exp, metric string, v float64) {
		pins = append(pins, figurePin{exp: exp, metric: metric, value: v})
	}
	band := func(exp, metric string, v, lo, hi float64) {
		pins = append(pins, figurePin{exp: exp, metric: metric, value: v, banded: true, lo: lo, hi: hi})
	}
	medians := func(exp, suffix string, series []Series) {
		for _, s := range series {
			add(exp, metricName(s.Label, suffix), s.Summary.Median)
		}
	}

	// Fig. 1: measured η within one RTT above its closed form, ψ within
	// [−RTT/2, +2·RTT] of its closed form.
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	for _, r := range Fig1(io.Discard, opt) {
		band("fig1_handshake", fmt.Sprintf("eta_theta%.0f_ms", r.Theta), ms(r.EtaMeasured),
			ms(r.EtaModel), ms(r.EtaModel+r.RTT))
		band("fig1_handshake", fmt.Sprintf("psi_theta%.0f_ms", r.Theta), ms(r.PsiMeasured),
			ms(r.PsiModel-r.RTT/2), ms(r.PsiModel+2*r.RTT))
	}

	// Fig. 2: MSPlayer's reduction over the best single path (the paper
	// reports 37%) within 15–60%.
	fig2 := Fig2(io.Discard, opt)
	medians("fig2_prebuffer", "med_s", fig2)
	if len(fig2) == 3 {
		best := min(fig2[0].Summary.Median, fig2[1].Summary.Median)
		band("fig2_prebuffer", "reduction_pct", (1-fig2[2].Summary.Median/best)*100, 15, 60)
	}

	for _, c := range Fig3(io.Discard, opt) {
		add("fig3_schedulers", metricName(c.Series.Label, "med_s"), c.Series.Summary.Median)
	}

	// Fig. 4: the paper's 18–23% start-up reduction, widened by five
	// points each side.
	for _, r := range Fig4(io.Discard, opt) {
		band("fig4_youtube", fmt.Sprintf("reduction_%ds_pct", int(r.PreBuffer.Seconds())), r.Reduction*100, 13, 28)
	}

	for _, r := range Fig5(io.Discard, opt) {
		medians("fig5_rebuffer", "med_s", []Series{r.WiFi64, r.WiFi256, r.LTE64, r.LTE256, r.MSPlayer})
	}

	// Table 1: WiFi carries the majority of the traffic, 45–85%.
	for _, r := range Table1(io.Discard, opt) {
		secs := int(r.Size.Seconds())
		band("table1_share", fmt.Sprintf("wifi_pre_%ds_pct", secs), r.PreMean*100, 45, 85)
		band("table1_share", fmt.Sprintf("wifi_re_%ds_pct", secs), r.ReMean*100, 45, 85)
	}

	for _, r := range Mobility(io.Discard, opt) {
		add("mobility_outage", metricName(r.Label, "completed"), float64(r.Completed))
		add("mobility_outage", metricName(r.Label, "mean_stall_s"), r.MeanStallSecs)
	}

	medians("ablation_delta", "med_s", AblationDelta(io.Discard, opt))
	medians("ablation_alpha", "med_s", AblationAlpha(io.Discard, opt))
	medians("ablation_ooo", "med_s", AblationOutOfOrder(io.Discard, opt))
	medians("ablation_headstart", "med_s", AblationHeadStart(io.Discard, opt))
	medians("ablation_energy", "med_j", AblationEnergy(io.Discard, opt))
	return pins
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderFigures prints pins in the golden's format. Floats use the
// shortest representation that parses back to the same bits, so the
// text is an exact pin.
func renderFigures(pins []figurePin) string {
	var b strings.Builder
	b.WriteString("# Paper-figure pin: every experiment of internal/bench at seed 1, 3 reps.\n")
	b.WriteString("# experiment metric value [lo hi]; a band is the paper's range the value must sit in.\n")
	for _, p := range pins {
		fmt.Fprintf(&b, "%s %s %s", p.exp, p.metric, fmtFloat(p.value))
		if p.banded {
			fmt.Fprintf(&b, " %s %s", fmtFloat(p.lo), fmtFloat(p.hi))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func parseFigures(text string) ([]figurePin, error) {
	var pins []figurePin
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 && len(f) != 5 {
			return nil, fmt.Errorf("line %d: want `experiment metric value [lo hi]`, got %q", i+1, line)
		}
		nums := make([]float64, len(f)-2)
		for j := range nums {
			v, err := strconv.ParseFloat(f[j+2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			nums[j] = v
		}
		p := figurePin{exp: f[0], metric: f[1], value: nums[0]}
		if len(nums) == 3 {
			p.banded, p.lo, p.hi = true, nums[1], nums[2]
		}
		pins = append(pins, p)
	}
	return pins, nil
}

// TestFigureMetricsPinned is the value fence around the paper's evaluation:
// all eight experiments at seed 1, 3 reps, must reproduce every metric
// in testdata/figures.golden with exact float equality, and every
// banded metric must sit inside its paper band. Any drift means the
// session engine, the emulator or the origin changed behaviour; the
// measured table is logged so the change can be diffed.
func TestFigureMetricsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseFigures(string(data))
	if err != nil {
		t.Fatal(err)
	}
	got := figurePins()
	measured := make(map[string]float64, len(got))
	for _, p := range got {
		measured[p.key()] = p.value
	}
	pinned := make(map[string]bool, len(want))
	for _, w := range want {
		pinned[w.key()] = true
		v, ok := measured[w.key()]
		switch {
		case !ok:
			t.Errorf("%s: pinned but no longer measured", w.key())
		case v != w.value:
			t.Errorf("%s = %s, pinned %s", w.key(), fmtFloat(v), fmtFloat(w.value))
		}
		if ok && w.banded && (v < w.lo || v > w.hi) {
			t.Errorf("%s = %s outside the paper band [%s, %s]", w.key(), fmtFloat(v), fmtFloat(w.lo), fmtFloat(w.hi))
		}
	}
	for _, p := range got {
		if !pinned[p.key()] {
			t.Errorf("%s: measured but not pinned", p.key())
		}
	}
	if t.Failed() {
		t.Logf("measured figures:\n%s", renderFigures(got))
	}
}
