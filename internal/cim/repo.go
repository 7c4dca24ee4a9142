package cim

import (
	"fmt"
	"strings"
)

// Repository holds parsed CIM classes and instances and answers typed
// queries with inheritance-aware validation, playing the role of the
// CIM Object Manager in the Elba toolchain.
type Repository struct {
	classes   map[string]*Class
	instances []*Instance
}

// NewRepository creates an empty repository.
func NewRepository() *Repository {
	return &Repository{classes: map[string]*Class{}}
}

// LoadMOF parses src and registers its declarations. Classes must be
// declared (here or in an earlier load) before instances reference them.
func (r *Repository) LoadMOF(src string) error {
	classes, instances, err := Parse(src)
	if err != nil {
		return err
	}
	for i := range classes {
		c := classes[i]
		if _, dup := r.classes[c.Name]; dup {
			return fmt.Errorf("cim: duplicate class %q (line %d)", c.Name, c.Line)
		}
		if c.Super != "" {
			if _, ok := r.classes[c.Super]; !ok {
				return fmt.Errorf("cim: class %q extends unknown class %q", c.Name, c.Super)
			}
		}
		r.classes[c.Name] = &c
	}
	for i := range instances {
		in := instances[i]
		if err := r.validate(&in); err != nil {
			return err
		}
		r.applyDefaults(&in)
		r.instances = append(r.instances, &in)
	}
	return nil
}

// allProperties resolves a class's properties including inherited ones,
// nearest declaration winning.
func (r *Repository) allProperties(name string) (map[string]Property, error) {
	out := map[string]Property{}
	seen := map[string]bool{}
	for name != "" {
		if seen[name] {
			return nil, fmt.Errorf("cim: inheritance cycle at class %q", name)
		}
		seen[name] = true
		c, ok := r.classes[name]
		if !ok {
			return nil, fmt.Errorf("cim: unknown class %q", name)
		}
		for _, p := range c.Properties {
			if _, shadowed := out[p.Name]; !shadowed {
				out[p.Name] = p
			}
		}
		name = c.Super
	}
	return out, nil
}

// validate checks an instance's properties against its class schema,
// including property types.
func (r *Repository) validate(in *Instance) error {
	props, err := r.allProperties(in.Class)
	if err != nil {
		return fmt.Errorf("cim: instance at line %d: %w", in.Line, err)
	}
	for name, v := range in.Props {
		p, ok := props[name]
		if !ok {
			return fmt.Errorf("cim: instance of %q (line %d): unknown property %q", in.Class, in.Line, name)
		}
		if !typeMatches(p.Type, v) {
			return fmt.Errorf("cim: instance of %q (line %d): property %q: %s value for %s",
				in.Class, in.Line, name, kindName(v.Kind), p.Type)
		}
	}
	return nil
}

// applyDefaults fills in class-level property defaults the instance does
// not set.
func (r *Repository) applyDefaults(in *Instance) {
	props, err := r.allProperties(in.Class)
	if err != nil {
		return // validate already rejected unknown classes
	}
	for name, p := range props {
		if p.Default == nil {
			continue
		}
		if _, set := in.Props[name]; !set {
			in.Props[name] = *p.Default
		}
	}
}

func kindName(k ValueKind) string {
	switch k {
	case StringValue:
		return "string"
	case IntValue:
		return "integer"
	case RealValue:
		return "real"
	case BoolValue:
		return "boolean"
	case ArrayValue:
		return "array"
	default:
		return "invalid"
	}
}

// typeMatches checks a MOF type name against a value kind. Integer types
// accept integer literals; real types accept both; arrays are declared
// with a [] suffix.
func typeMatches(typ string, v Value) bool {
	if strings.HasSuffix(typ, "[]") {
		if v.Kind != ArrayValue {
			return false
		}
		elem := strings.TrimSuffix(typ, "[]")
		for _, e := range v.Array {
			if !typeMatches(elem, e) {
				return false
			}
		}
		return true
	}
	switch typ {
	case "string", "datetime", "ref":
		return v.Kind == StringValue
	case "uint8", "uint16", "uint32", "uint64", "sint8", "sint16", "sint32", "sint64":
		return v.Kind == IntValue
	case "real32", "real64":
		return v.Kind == RealValue || v.Kind == IntValue
	case "boolean":
		return v.Kind == BoolValue
	default:
		return false
	}
}

// isSubclassOf reports whether class name is cls or inherits from it.
func (r *Repository) isSubclassOf(name, cls string) bool {
	for name != "" {
		if name == cls {
			return true
		}
		c, ok := r.classes[name]
		if !ok {
			return false
		}
		name = c.Super
	}
	return false
}

// InstancesOf returns instances whose class is cls or a subclass of it,
// in declaration order.
func (r *Repository) InstancesOf(cls string) []*Instance {
	var out []*Instance
	for _, in := range r.instances {
		if r.isSubclassOf(in.Class, cls) {
			out = append(out, in)
		}
	}
	return out
}
