package haft

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/workloads"
)

// ExperimentOptions parameterizes the evaluation harness.
type ExperimentOptions = exp.Options

// DefaultExperimentOptions returns interactive-scale defaults (the
// full paper-scale campaign takes hours; raise Injections and Scale to
// approach it).
func DefaultExperimentOptions() ExperimentOptions { return exp.DefaultOptions() }

// textOnly adapts an experiment that only renders text; ExperimentFull
// supplies its machine-readable form.
func textOnly(run func(exp.Options) (string, error)) func(exp.Options) (any, string, error) {
	return func(o exp.Options) (any, string, error) {
		text, err := run(o)
		return nil, text, err
	}
}

// experiments maps experiment ids to runners returning a
// machine-readable value (for haftbench -json) and the rendered text.
// Every table and figure of the paper's evaluation has an entry (see
// DESIGN.md's experiment index); all of them are deterministic —
// wall-clock numbers come from bench/ only.
var experiments = map[string]func(exp.Options) (data any, text string, err error){
	"fig6": textOnly(func(o exp.Options) (string, error) {
		return exp.Fig6(o).String(), nil
	}),
	"table2": textOnly(func(o exp.Options) (string, error) {
		return exp.Table2(o).String(), nil
	}),
	"fig7": textOnly(func(o exp.Options) (string, error) {
		return exp.Fig7(o).String(), nil
	}),
	"fig8": textOnly(func(o exp.Options) (string, error) {
		over, ab := exp.Fig8(o)
		return over.String() + "\n" + ab.String(), nil
	}),
	"table3": textOnly(func(o exp.Options) (string, error) {
		return exp.Table3(o).String(), nil
	}),
	"fig9": textOnly(func(o exp.Options) (string, error) {
		_, t, err := exp.Fig9(o)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}),
	"fig9opts": textOnly(func(o exp.Options) (string, error) {
		t, err := exp.Fig9Opts(o)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}),
	"table4": textOnly(func(o exp.Options) (string, error) {
		_, _, _, t, err := exp.Table4(o)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}),
	"fig10": textOnly(func(o exp.Options) (string, error) {
		// Model evaluated with the published Table 4 parameters; run
		// "fig10measured" to use a fresh fault-injection campaign.
		n, i, h := exp.PaperTable4()
		av, co, err := exp.Fig10(n, i, h)
		if err != nil {
			return "", err
		}
		return av.String() + "\n" + co.String(), nil
	}),
	"fig10measured": textOnly(func(o exp.Options) (string, error) {
		n, i, h, t, err := exp.Table4(o)
		if err != nil {
			return "", err
		}
		av, co, err := exp.Fig10(n, i, h)
		if err != nil {
			return "", err
		}
		return t.String() + "\n" + av.String() + "\n" + co.String(), nil
	}),
	"fig11": textOnly(func(o exp.Options) (string, error) {
		var sb strings.Builder
		for _, s := range exp.Fig11(o) {
			sb.WriteString(s.String())
			sb.WriteString("\n")
		}
		return sb.String(), nil
	}),
	"fig11sei": textOnly(func(o exp.Options) (string, error) {
		return exp.Fig11SEI(o).String(), nil
	}),
	"fig12": textOnly(func(o exp.Options) (string, error) {
		var sb strings.Builder
		for _, s := range exp.Fig12(o) {
			sb.WriteString(s.String())
			sb.WriteString("\n")
		}
		return sb.String(), nil
	}),
	"appfi": textOnly(func(o exp.Options) (string, error) {
		t, err := exp.AppFI(o)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}),
	"fimodels": func(o exp.Options) (any, string, error) {
		res, t, err := exp.FIModels(o)
		if err != nil {
			return nil, "", err
		}
		return res, t.String(), nil
	},
	"overhead": func(o exp.Options) (any, string, error) {
		res, t, err := exp.Overhead(o)
		if err != nil {
			return nil, "", err
		}
		return res, t.String(), nil
	},
	"vmexec": func(o exp.Options) (any, string, error) {
		res, t, err := exp.VMExec(o)
		if err != nil {
			return nil, "", err
		}
		return res, t.String(), nil
	},
	"tmrcompare": func(o exp.Options) (any, string, error) {
		res, t, err := exp.TMRCompare(o)
		if err != nil {
			return nil, "", err
		}
		return res, t, nil
	},
}

// ExperimentFull runs an experiment and returns both its rendered text
// and a machine-readable value: a structured result where the
// experiment defines one, otherwise the text wrapped in an
// {"id", "output"} object. Valid ids are listed by Experiments.
func ExperimentFull(id string, opts ExperimentOptions) (string, any, error) {
	run, ok := experiments[id]
	if !ok {
		return "", nil, fmt.Errorf("haft: unknown experiment %q (have %v)", id, Experiments())
	}
	for _, name := range opts.Benchmarks {
		if _, err := workloads.ByName(name); err != nil {
			return "", nil, fmt.Errorf("haft: unknown benchmark %q", name)
		}
	}
	data, text, err := run(opts)
	if err == nil && data == nil {
		data = map[string]any{"id": id, "output": text}
	}
	return text, data, err
}

// Experiments lists the available experiment ids.
func Experiments() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Experiment regenerates one of the paper's tables or figures and
// returns it rendered as text.
func Experiment(id string, opts ExperimentOptions) (string, error) {
	text, _, err := ExperimentFull(id, opts)
	return text, err
}
