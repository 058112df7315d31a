package engine

import (
	"context"
	"fmt"
	"sync"
)

// ExecContext is what a module implementation receives: its bound inputs,
// parameters, and the ambient context for cancellation.
type ExecContext struct {
	Ctx      context.Context
	ModuleID string
	Inputs   map[string]Value  // keyed by input port name
	Params   map[string]string // bound parameter values
}

// Input returns the value on an input port, or an error naming the port.
func (e *ExecContext) Input(port string) (Value, error) {
	v, ok := e.Inputs[port]
	if !ok {
		return Value{}, fmt.Errorf("module %s: no value on input port %q", e.ModuleID, port)
	}
	return v, nil
}

// Param returns a parameter value, or def when unset.
func (e *ExecContext) Param(key, def string) string {
	if v, ok := e.Params[key]; ok {
		return v
	}
	return def
}

// Func is a module implementation: it maps inputs+params to outputs, keyed
// by output port name.
type Func func(*ExecContext) (map[string]Value, error)

// Registry maps module type names to implementations. It is safe for
// concurrent use; registries are typically populated at startup and shared
// across engines.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]Func)}
}

// Register binds a module type to an implementation; re-registration
// replaces the previous binding.
func (r *Registry) Register(moduleType string, fn Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[moduleType] = fn
}

// Lookup returns the implementation for a module type.
func (r *Registry) Lookup(moduleType string) (Func, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.funcs[moduleType]
	if !ok {
		return nil, fmt.Errorf("engine: no implementation registered for module type %q", moduleType)
	}
	return fn, nil
}
