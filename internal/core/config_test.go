package core

import (
	"strings"
	"testing"

	"repro/internal/sharing"
)

// TestConfigCheck: Check accepts every mode's DefaultConfig, and rejects
// every setting that is invalid or that the selected stack would ignore,
// naming the field. Each rejected config
// also fails NewSystem before anything is assembled: a
// zero Quantum used to hang every mode, because a run that retires nothing
// charges no cycle and never trips a budget.
func TestConfigCheck(t *testing.T) {
	with := func(cfg Config, set func(*Config)) Config {
		set(&cfg)
		return cfg
	}
	type row struct {
		name  string
		cfg   Config
		field string // "" when the config is valid
	}
	rows := []row{
		{"unknown mode", Config{Mode: ModeAikidoFastTrack + 1, Quantum: 1000}, "Mode"},
	}
	for _, m := range []Mode{ModeNative, ModeDBI, ModeFastTrackFull, ModeAikidoFastTrack} {
		def := DefaultConfig(m)
		rows = append(rows,
			row{m.String() + " default", def, ""},
			row{m.String() + " quantum 0", with(def, func(c *Config) { c.Quantum = 0 }), "Quantum"},
			row{m.String() + " quantum 0 with a cycle budget",
				with(def, func(c *Config) { c.Quantum, c.MaxCycles = 0, 1e6 }), "Quantum"},
			row{m.String() + " negative max findings", with(def, func(c *Config) { c.MaxFindings = -1 }), "MaxFindings"},
			row{m.String() + " max findings without analysis",
				with(def.WithAnalyses(), func(c *Config) { c.MaxFindings = 5 }), "MaxFindings"})
	}
	for _, m := range []Mode{ModeNative, ModeDBI} {
		rows = append(rows,
			row{m.String() + " with fasttrack", DefaultConfig(m).WithAnalyses("fasttrack"), "Analyses"},
			row{m.String() + " with lockset", DefaultConfig(m).WithAnalyses("lockset"), "Analyses"},
			row{m.String() + " with an empty selection", DefaultConfig(m).WithAnalyses([]string{}...), ""})
	}
	for _, m := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
		def := DefaultConfig(m)
		rows = append(rows,
			row{m.String() + " max findings", with(def, func(c *Config) { c.MaxFindings = 5 }), ""},
			row{m.String() + " no analysis", def.WithAnalyses(), ""},
			row{m.String() + " two analyses", def.WithAnalyses("ft", "lockset"), ""},
			row{m.String() + " unknown analysis", def.WithAnalyses("bogus"), "Analyses"},
			row{m.String() + " one analysis twice", def.WithAnalyses("ft", "fasttrack"), "Analyses"})
	}
	for _, m := range []Mode{ModeNative, ModeDBI, ModeFastTrackFull} {
		def := DefaultConfig(m)
		rows = append(rows,
			row{m.String() + " epochs", with(def, func(c *Config) { c.Aikido.Epoch = sharing.DefaultEpochPolicy() }), "Aikido"})
	}

	prog := privateProgram(1)
	for _, r := range rows {
		err := r.cfg.Check()
		if r.field == "" {
			if err != nil {
				t.Errorf("%s: Check = %v, want nil", r.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "Config."+r.field+":") {
			t.Errorf("%s: Check = %v, want an error naming Config.%s", r.name, err, r.field)
		}
		if _, err := NewSystem(prog, r.cfg); err == nil {
			t.Errorf("%s: NewSystem accepted the config", r.name)
		}
	}
}
