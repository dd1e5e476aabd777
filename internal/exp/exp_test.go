package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/htm"
)

// smallOptions keeps harness tests fast: one cheap benchmark, few
// threads and injections.
func smallOptions() Options {
	o := DefaultOptions()
	o.Threads = []int{1, 2}
	o.PerfThreads = 2
	o.Injections = 20
	o.Benchmarks = []string{"histogram"}
	return o
}

func TestFig6ProducesOverheads(t *testing.T) {
	s := Fig6(smallOptions())
	if len(s.X) != 2 || s.X[0] != "histogram" || s.X[1] != "mean" {
		t.Fatalf("rows = %v", s.X)
	}
	for _, th := range []string{"1T", "2T"} {
		ys := s.Y[th]
		if len(ys) != 2 {
			t.Fatalf("series %s = %v", th, ys)
		}
		if ys[0] < 1.0 || ys[0] > 4 {
			t.Errorf("histogram overhead %v outside plausible range", ys[0])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl := Table2(smallOptions())
	if len(tbl.Rows) != 2 { // histogram + mean
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "histogram" || tbl.Rows[1][0] != "mean" {
		t.Fatalf("row names: %v", tbl.Rows)
	}
	if len(tbl.Header) != 6 {
		t.Fatalf("header = %v", tbl.Header)
	}
}

func TestFig8SweepsThresholds(t *testing.T) {
	over, aborts := Fig8(smallOptions())
	if len(over.Labels) != len(Fig8Thresholds) || len(aborts.Labels) != len(Fig8Thresholds) {
		t.Fatalf("labels: %v / %v", over.Labels, aborts.Labels)
	}
	// Overhead must not increase with larger transactions for a
	// low-abort benchmark like histogram.
	first := over.Y["250"][0]
	last := over.Y["5000"][0]
	if last > first*1.1 {
		t.Errorf("overhead grew with transaction size: %.3f -> %.3f", first, last)
	}
}

func TestFig9AndModelParams(t *testing.T) {
	o := smallOptions()
	outs, tbl, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Native == nil || outs[0].ILR == nil || outs[0].HAFT == nil {
		t.Fatalf("outs = %+v", outs)
	}
	if !strings.Contains(tbl.String(), "histogram") {
		t.Fatal("table missing benchmark")
	}
	p := ModelParams([]*fault.ModelResult{outs[0].HAFT})
	sum := p.PMasked + p.PSDC + p.PCrashed + p.PCorrectable
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("model params sum to %v", sum)
	}
}

func TestFig10FromPaperParams(t *testing.T) {
	n, i, h := PaperTable4()
	av, co, err := Fig10(n, i, h)
	if err != nil {
		t.Fatal(err)
	}
	// At the highest rate the ordering native < ILR < HAFT must hold.
	last := len(av.X) - 1
	nat := av.Y["native"][last]
	ilr := av.Y["ILR"][last]
	haft := av.Y["HAFT"][last]
	if !(nat < ilr && ilr < haft) {
		t.Fatalf("availability ordering: native=%v ilr=%v haft=%v", nat, ilr, haft)
	}
	if co.Y["native"][last] < 50 {
		t.Fatalf("native corruption = %v, want > 50%%", co.Y["native"][last])
	}
}

func TestMeasureReportsCauses(t *testing.T) {
	o := smallOptions()
	specList := o.benchList()
	p := specList[0].Build(0)
	st := measure(p, core.ModeHAFT, core.OptFaultProp, p.TxThreshold, 2, nil)
	if st.Cycles == 0 {
		t.Fatal("no cycles measured")
	}
	for _, c := range []htm.Cause{htm.CauseCapacity, htm.CauseConflict, htm.CauseOther} {
		if _, ok := st.CauseShare[c]; !ok {
			t.Fatalf("cause %v missing", c)
		}
	}
	if st.Coverage <= 0 || st.Coverage > 100 {
		t.Fatalf("coverage = %v", st.Coverage)
	}
}

func TestFig11SEISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("app throughput sweep")
	}
	s := Fig11SEI(DefaultOptions())
	if len(s.X) != len(Fig11Threads) {
		t.Fatalf("thread ticks: %v", s.X)
	}
	last := len(s.X) - 1
	nat := s.Y["native"][last]
	haft := s.Y["HAFT"][last]
	seiV := s.Y["SEI"][last]
	if !(nat > haft && haft > seiV) {
		t.Fatalf("ordering native>HAFT>SEI violated: %v %v %v", nat, haft, seiV)
	}
	// The paper's 30-40% HAFT-over-SEI claim, with slack.
	adv := 100 * (haft/seiV - 1)
	if adv < 15 || adv > 80 {
		t.Errorf("HAFT over SEI = %.0f%%, paper reports 30-40%%", adv)
	}
}

func TestAppFISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaigns")
	}
	o := DefaultOptions()
	o.Injections = 25
	tbl, err := AppFI(o)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	for _, want := range []string{"memcached", "leveldb", "sqlite", "native", "haft"} {
		if !strings.Contains(text, want) {
			t.Fatalf("AppFI table missing %q:\n%s", want, text)
		}
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("app throughput sweep")
	}
	series := Fig12(DefaultOptions())
	if len(series) != 6 {
		t.Fatalf("Fig12 series = %d, want 6", len(series))
	}
	// SQLite must show the worst native/HAFT gap, Apache the best.
	gap := func(s int) float64 {
		last := len(series[s].X) - 1
		return series[s].Y["native"][last] / series[s].Y["HAFT"][last]
	}
	apache, sqlite := gap(1), gap(4)
	if sqlite < 2.5 {
		t.Errorf("SQLite gap %.2fx, want > 2.5x", sqlite)
	}
	if apache > 1.3 {
		t.Errorf("Apache gap %.2fx, want < 1.3x", apache)
	}
}
