package experiments

// Options sizes the exhibits that execute on the real engine; a value <= 0
// picks the harness's default.
type Options struct {
	Fig8Rows  int // rows per dataset for Figure 8
	Fig15Rows int // rows for Figure 15
}

// Exhibit is one named exhibit of the evaluation.
type Exhibit struct {
	Name string
	Run  func(Options) ([]Table, error)
}

// Exhibits lists every exhibit in print order.
var Exhibits = []Exhibit{
	{"fig6", func(Options) ([]Table, error) { return tables(Figure6()) }},
	{"fig7a", func(Options) ([]Table, error) { return tables(Figure7A()) }},
	{"fig7b", func(Options) ([]Table, error) { return tables(Figure7B()) }},
	{"fig8", func(o Options) ([]Table, error) { return tables(Figure8(Figure8Options{Rows: o.Fig8Rows})) }},
	{"fig9", func(Options) ([]Table, error) { return sweepTables(Figure9()) }},
	{"fig10", func(Options) ([]Table, error) { return sweepTables(Figure10()) }},
	{"fig11", func(Options) ([]Table, error) { return tables(Figure11()) }},
	{"fig12", func(Options) ([]Table, error) { return tables(Figure12()) }},
	{"fig15", func(o Options) ([]Table, error) { return tables(Figure15(o.Fig15Rows)) }},
	{"fig16", func(Options) ([]Table, error) { return tables(Figure16()) }},
	{"table2", func(Options) ([]Table, error) { return tables(Table2()) }},
	{"table3", func(Options) ([]Table, error) { return tables(Table3()) }},
	{"fig17", func(Options) ([]Table, error) { return tables(Figure17()) }},
	{"sec52", func(Options) ([]Table, error) { return tables(Section52(0)) }},
	{"admission", func(Options) ([]Table, error) { return tables(AdmissionThroughput(0)) }},
	{"share", func(Options) ([]Table, error) { return tables(ShareThroughput(0)) }},
	{"calib", func(Options) ([]Table, error) { return tables(CalibrationConvergence()) }},
	{"verify", func(Options) ([]Table, error) { return tables(VerifyClaims()) }},
}

// tables passes a harness's error through, or returns its result's tables.
func tables[R interface{ Tables() []Table }](r R, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// sweepTables is tables for a figure made of sweep panels.
func sweepTables(sweeps []*SweepResult, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	var out []Table
	for _, s := range sweeps {
		out = append(out, s.Table())
	}
	return out, nil
}
