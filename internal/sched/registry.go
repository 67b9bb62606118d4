package sched

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
)

// BuildParams carries the method-specific knobs a plan builder may consume.
// The zero value asks every method for its paper-default configuration, so
// generic callers (the experiment harness, sweeps, the helix command)
// can build any registered method without knowing its parameters. GPipe,
// 1F1B, interleaved 1F1B (always two chunks per stage), ZB1P and ZB2P read
// none of them.
type BuildParams struct {
	// MemoryBudget is the per-GPU activation budget in bytes for
	// budget-aware schedules (AdaPipe). Zero or negative means unlimited.
	MemoryBudget int64
	// HelixRecompute overrides recomputation-without-attention; nil keeps
	// the registered variant's default.
	HelixRecompute *bool
}

// Builder constructs the plan of one registered method.
type Builder func(cfg Config, costs Costs, p BuildParams) (*Plan, error)

// TrafficFunc returns the per-(stage, peer) communication volume of the plan
// a Builder would construct from the same arguments, without building it:
// m[s][p] is the bytes stage s sends stage p over one iteration.
type TrafficFunc func(cfg Config, costs Costs, p BuildParams) ([][]int64, error)

// Registration describes one pipeline parallelism in the method registry:
// how to build its plan, and how to read that plan's traffic without
// building it.
type Registration struct {
	// Name is the canonical method name.
	Name Method
	// Description is a one-line summary shown by method listings.
	Description string
	// Rank orders registry listings (baselines first, like the paper).
	Rank int
	// Build constructs the method's plan.
	Build Builder
	// Traffic returns the method's traffic matrix in closed form, from its
	// partition and message volumes alone, so placement search never builds
	// a schedule only to read it. Whenever Build succeeds it must equal the
	// plan's TrafficMatrix, and it must reject a geometry Build rejects with
	// the same error text by calling the builder's geometry check. It may
	// accept what Build rejects for other reasons (AdaPipe's memory budget,
	// a list scheduler's deadlock); those surface when the plan is built.
	Traffic TrafficFunc
}

var registry = struct {
	sync.RWMutex
	byName map[string]Registration
}{byName: map[string]Registration{}}

// ErrDuplicateMethod reports a registration whose name (case-insensitively)
// is already taken. TryRegister wraps it; errors.Is unwraps it.
var ErrDuplicateMethod = errors.New("sched: duplicate method registration")

// TryRegister adds a method to the registry and reports why it could not:
// an empty name, a nil builder or traffic function, or a name
// (case-insensitively) already registered. On a duplicate the existing
// registration stays in place — first wins, deterministically, whatever the
// init order.
func TryRegister(r Registration) error {
	if r.Name == "" {
		return errors.New("sched: Register with empty method name")
	}
	if r.Build == nil {
		return fmt.Errorf("sched: Register(%s) with nil builder", r.Name)
	}
	if r.Traffic == nil {
		return fmt.Errorf("sched: Register(%s) with nil traffic function", r.Name)
	}
	key := strings.ToLower(string(r.Name))
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[key]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateMethod, r.Name)
	}
	registry.byName[key] = r
	return nil
}

// Register adds a method to the registry. Generator packages call it from
// init: the layer-wise baselines register here in package sched, and
// internal/core registers the HelixPipe variants. Registering an empty name,
// a nil builder or a nil traffic function panics — those are programmer
// errors that must surface at process start. A duplicate name is logged and
// ignored, keeping the first registration: panicking here would make program
// startup depend on package init order. Callers that need the duplicate as a
// value use TryRegister.
func Register(r Registration) {
	if err := TryRegister(r); err != nil {
		if errors.Is(err, ErrDuplicateMethod) {
			log.Print(err)
			return
		}
		panic(err)
	}
}

// Lookup resolves a method name case-insensitively and reports whether it is
// registered.
func Lookup(name string) (Registration, bool) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.byName[strings.ToLower(name)]
	return r, ok
}

// Registrations returns every registered method ordered by rank (baselines
// first) then name.
func Registrations() []Registration {
	registry.RLock()
	out := make([]Registration, 0, len(registry.byName))
	for _, r := range registry.byName {
		out = append(out, r)
	}
	registry.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Methods returns the names of every registered pipeline parallelism,
// baselines first. The list is registry-driven: it contains exactly the
// methods whose packages are linked into the program.
func Methods() []Method {
	regs := Registrations()
	out := make([]Method, len(regs))
	for i, r := range regs {
		out[i] = r.Name
	}
	return out
}

// Build constructs the plan of a registered method. The method name is
// resolved case-insensitively; unknown names report the registered
// alternatives. The plan may be carved from a recycled slab (NewPlan) and
// is the caller's: nothing recycles it.
func Build(method Method, cfg Config, costs Costs, p BuildParams) (*Plan, error) {
	r, err := lookupMethod(method)
	if err != nil {
		return nil, err
	}
	return r.Build(cfg, costs, p)
}

// Traffic returns the traffic matrix of a registered method's plan without
// building it (Registration.Traffic), resolving the name like Build.
func Traffic(method Method, cfg Config, costs Costs, p BuildParams) ([][]int64, error) {
	r, err := lookupMethod(method)
	if err != nil {
		return nil, err
	}
	return r.Traffic(cfg, costs, p)
}

// lookupMethod resolves a method name for Build and Traffic.
func lookupMethod(method Method) (Registration, error) {
	r, ok := Lookup(string(method))
	if !ok {
		return r, fmt.Errorf("sched: unknown method %q (registered: %s)",
			method, joinMethods(Methods()))
	}
	return r, nil
}

func joinMethods(ms []Method) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

// The layer-wise baselines register themselves here; HelixPipe's variants
// are registered by internal/core, which builds on this package's IR. Every
// layer-wise baseline but the interleaved one shares one traffic formula:
// their schedules differ in order and partition, never in who sends what.
func init() {
	Register(Registration{
		Name:        MethodGPipe,
		Description: "all forwards then all backwards (FILO), layer-wise partition",
		Rank:        10,
		Build: func(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
			return GPipe(cfg, costs)
		},
		Traffic: layerwiseTraffic,
	})
	Register(Registration{
		Name:        Method1F1B,
		Description: "PipeDream/Megatron-LM one-forward-one-backward steady state",
		Rank:        20,
		Build: func(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
			return OneFOneB(cfg, costs)
		},
		Traffic: layerwiseTraffic,
	})
	Register(Registration{
		Name:        MethodInterleaved,
		Description: "interleaved 1F1B with multiple model chunks per stage",
		Rank:        30,
		Build: func(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
			return Interleaved(cfg, costs)
		},
		Traffic: interleavedTraffic,
	})
	Register(Registration{
		Name:        MethodZB1P,
		Description: "zero-bubble 1F1B: weight gradients deferred into bubbles",
		Rank:        40,
		Build: func(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
			return ZB1P(cfg, costs)
		},
		Traffic: layerwiseTraffic,
	})
	Register(Registration{
		Name:        MethodZB2P,
		Description: "zero-bubble variant admitting extra warmup forwards",
		Rank:        50,
		Build: func(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
			return ZB2P(cfg, costs)
		},
		Traffic: layerwiseTraffic,
	})
	Register(Registration{
		Name:        MethodAdaPipe,
		Description: "adaptive recomputation and layer partition under a memory budget",
		Rank:        60,
		Build: func(cfg Config, costs Costs, p BuildParams) (*Plan, error) {
			return AdaPipe(cfg, costs, p.MemoryBudget)
		},
		Traffic: layerwiseTraffic,
	})
}
