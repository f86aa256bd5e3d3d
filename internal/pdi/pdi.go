package pdi

import (
	"fmt"

	"deisago/internal/ndarray"
	"deisago/internal/vtime"
)

// Plugin reacts to data shares and events. Plugins are the extension
// point PDI uses to decouple what a simulation exposes from what is done
// with it; the deisa plugin (package core) is one implementation.
type Plugin interface {
	// Name identifies the plugin (its key under `plugins:` in the
	// configuration).
	Name() string
	// Init is called once when the plugin is attached.
	Init(s *System) error
	// DataShared is called when the simulation shares a buffer. The
	// plugin returns the virtual time at which the share call may return.
	DataShared(name string, data *ndarray.Array, at vtime.Time) (vtime.Time, error)
	// Event is called for named events (e.g. the init_on event).
	Event(name string, at vtime.Time) (vtime.Time, error)
	// Finalize is called when the simulation tears down.
	Finalize(at vtime.Time) (vtime.Time, error)
}

// System is one rank's PDI instance: configuration, exposed metadata, and
// attached plugins.
type System struct {
	config  map[string]any
	meta    map[string]any
	plugins []Plugin
}

// New parses the configuration and returns a System with no plugins
// attached yet.
func New(configYAML string) (*System, error) {
	cfg, err := ParseYAML(configYAML)
	if err != nil {
		return nil, err
	}
	return &System{config: cfg, meta: map[string]any{}}, nil
}

// PluginConfig returns the configuration block of a named plugin.
func (s *System) PluginConfig(name string) (map[string]any, bool) {
	plugins, ok := s.config["plugins"].(map[string]any)
	if !ok {
		return nil, false
	}
	pc, ok := plugins[name]
	if !ok {
		return nil, false
	}
	m, ok := pc.(map[string]any)
	if !ok {
		// A plugin may be listed with an empty body.
		return map[string]any{}, true
	}
	return m, true
}

// Expose publishes a metadata value (the paper's `metadata:` section:
// $step, $rank, $cfg...). Re-exposing a name overwrites it, as PDI does
// each timestep for $step.
func (s *System) Expose(name string, value any) {
	s.meta[name] = normalize(value)
}

// normalize converts Go values into the expression evaluator's types.
func normalize(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case []int:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = int64(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = normalize(e)
		}
		return out
	default:
		return v
	}
}

// Metadata returns the live metadata context used for expression
// evaluation.
func (s *System) Metadata() map[string]any { return s.meta }

// EvalIntList evaluates a YAML list of scalar expressions to ints.
func (s *System) EvalIntList(v any) ([]int, error) {
	list, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("pdi: expected a list, got %T", v)
	}
	out := make([]int, len(list))
	for i, e := range list {
		ev, err := EvalValue(e, s.meta)
		if err != nil {
			return nil, err
		}
		n, ok := toInt(ev)
		if !ok {
			return nil, fmt.Errorf("pdi: list element %d evaluated to non-integer %v", i, ev)
		}
		out[i] = n
	}
	return out, nil
}

// HasData reports whether a buffer name is declared in the data section.
func (s *System) HasData(name string) bool {
	data, ok := s.config["data"].(map[string]any)
	if !ok {
		return false
	}
	_, ok = data[name]
	return ok
}

// AddPlugin attaches and initializes a plugin.
func (s *System) AddPlugin(p Plugin) error {
	for _, q := range s.plugins {
		if q.Name() == p.Name() {
			return fmt.Errorf("pdi: plugin %q already attached", p.Name())
		}
	}
	if err := p.Init(s); err != nil {
		return fmt.Errorf("pdi: init plugin %q: %w", p.Name(), err)
	}
	s.plugins = append(s.plugins, p)
	return nil
}

// Share exposes a data buffer to all plugins (PDI_share with read access,
// no copy). The buffer must be declared in the configuration's data
// section. Plugins are notified in attach order; virtual time threads
// through them.
func (s *System) Share(name string, data *ndarray.Array, at vtime.Time) (vtime.Time, error) {
	if !s.HasData(name) {
		return at, fmt.Errorf("pdi: share of undeclared data %q", name)
	}
	t := at
	for _, p := range s.plugins {
		var err error
		t, err = p.DataShared(name, data, t)
		if err != nil {
			return t, fmt.Errorf("pdi: plugin %q on share %q: %w", p.Name(), name, err)
		}
	}
	return t, nil
}

// Event broadcasts a named event to all plugins.
func (s *System) Event(name string, at vtime.Time) (vtime.Time, error) {
	t := at
	for _, p := range s.plugins {
		var err error
		t, err = p.Event(name, t)
		if err != nil {
			return t, fmt.Errorf("pdi: plugin %q on event %q: %w", p.Name(), name, err)
		}
	}
	return t, nil
}

// Finalize tears down all plugins.
func (s *System) Finalize(at vtime.Time) (vtime.Time, error) {
	t := at
	for _, p := range s.plugins {
		var err error
		t, err = p.Finalize(t)
		if err != nil {
			return t, fmt.Errorf("pdi: plugin %q finalize: %w", p.Name(), err)
		}
	}
	return t, nil
}
