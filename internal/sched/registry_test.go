package sched

import (
	"errors"
	"strings"
	"testing"
)

// unregister removes a test registration so the shared registry stays clean
// for the other tests in this package.
func unregister(name Method) {
	registry.Lock()
	delete(registry.byName, strings.ToLower(string(name)))
	registry.Unlock()
}

func testBuilder(cfg Config, costs Costs, _ BuildParams) (*Plan, error) {
	return GPipe(cfg, costs)
}

func TestTryRegisterRejectsBadRegistrations(t *testing.T) {
	if err := TryRegister(Registration{Name: "", Build: testBuilder, Traffic: layerwiseTraffic}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := TryRegister(Registration{Name: "registry-test-nil", Traffic: layerwiseTraffic}); err == nil {
		t.Error("nil builder must be rejected")
	}
	err := TryRegister(Registration{Name: "registry-test-nil-traffic", Build: testBuilder})
	if err == nil || !strings.Contains(err.Error(), "nil traffic function") {
		t.Errorf("nil traffic function must be rejected, got %v", err)
	}
	if _, ok := Lookup("registry-test-nil-traffic"); ok {
		unregister("registry-test-nil-traffic")
		t.Error("a rejected registration must not be registered")
	}
}

func TestDuplicateRegistrationIsDeterministic(t *testing.T) {
	const name Method = "registry-test-dup"
	defer unregister(name)

	first := Registration{Name: name, Description: "first", Build: testBuilder, Traffic: layerwiseTraffic}
	if err := TryRegister(first); err != nil {
		t.Fatal(err)
	}
	// A duplicate — same name, any case — returns ErrDuplicateMethod and
	// leaves the first registration untouched.
	dup := Registration{Name: "Registry-Test-DUP", Description: "second", Build: testBuilder, Traffic: layerwiseTraffic}
	err := TryRegister(dup)
	if !errors.Is(err, ErrDuplicateMethod) {
		t.Fatalf("want ErrDuplicateMethod, got %v", err)
	}
	if got, _ := Lookup(string(name)); got.Description != "first" {
		t.Errorf("duplicate overwrote the first registration: %q", got.Description)
	}

	// Register (the init-time path) must not panic on the duplicate either:
	// it logs and keeps the first registration, whatever the init order.
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("Register panicked on a duplicate: %v", r)
		}
	}()
	Register(dup)
	if got, _ := Lookup(string(name)); got.Description != "first" {
		t.Errorf("Register overwrote the first registration: %q", got.Description)
	}
}

func TestRegisterStillPanicsOnProgrammerErrors(t *testing.T) {
	for _, r := range []Registration{
		{Name: "", Build: testBuilder, Traffic: layerwiseTraffic},
		{Name: "registry-test-nil-builder", Traffic: layerwiseTraffic},
		{Name: "registry-test-nil-traffic", Build: testBuilder},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) must panic", r)
				}
			}()
			Register(r)
		}()
	}
}
