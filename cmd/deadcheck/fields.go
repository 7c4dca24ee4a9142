package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A field is one named, untagged struct field that a type declaration in
// a scanned package declares.
type field struct {
	obj   *types.Var
	name  string // import path, then Type.field (Type.outer.inner when nested)
	node  *ast.Field
	owner types.Object // the declared type
}

// declaredFields lists the fields of the struct types that the type
// declarations in files define, nested ones included, in source order.
// Embedded and blank fields are left out.
func declaredFields(path string, info *types.Info, files []*ast.File) []field {
	var out []field
	var walk func(owner types.Object, prefix string, e ast.Expr)
	walk = func(owner types.Object, prefix string, e ast.Expr) {
		switch e := e.(type) {
		case *ast.StructType:
			for _, f := range e.Fields.List {
				for _, id := range f.Names {
					if id.Name != "_" && f.Tag == nil {
						out = append(out, field{info.Defs[id].(*types.Var), prefix + "." + id.Name, f, owner})
					}
					walk(owner, prefix+"."+id.Name, f.Type)
				}
			}
		case *ast.StarExpr:
			walk(owner, prefix, e.X)
		case *ast.ArrayType:
			walk(owner, prefix, e.Elt)
		case *ast.MapType:
			walk(owner, prefix, e.Key)
			walk(owner, prefix, e.Value)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				walk(info.Defs[ts.Name], path+"."+ts.Name.Name, ts.Type)
			}
			return true
		})
	}
	return out
}

// fieldUses records which fields non-test code reads and which it sets.
type fieldUses struct {
	read, set map[*types.Var]bool
	seen      map[walked]bool
}

// walked is a type that readFields has walked, and how.
type walked struct {
	t    types.Type
	json bool
}

// mark records the field reads and sets in one package's files. A field
// counts as set where it, or an element of it, is assigned, incremented,
// deleted or cleared, where it is keyed or listed in a composite literal,
// has its address taken, or is the receiver of a pointer method. It
// counts as read wherever else it is named, except on the right of an
// assignment to the whole field. Every field of a struct that is compared
// with == or != or is a map key counts as read, and so does every
// exported field that encoding/json can reach from a value it marshals.
func (u *fieldUses) mark(info *types.Info, files []*ast.File) {
	fieldOf := func(e ast.Expr) (*ast.Ident, *types.Var) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return sel.Sel, v.Origin()
			}
		}
		return nil, nil
	}
	notRead := map[*ast.Ident]bool{}
	// store records a store into x.f, or into an element x.f[k] of it,
	// and returns the field of a whole-field store.
	store := func(e ast.Expr) *types.Var {
		ix, isIndex := ast.Unparen(e).(*ast.IndexExpr)
		if isIndex {
			e = ix.X
		}
		id, v := fieldOf(e)
		if v == nil {
			return nil
		}
		notRead[id], u.set[v] = true, true
		if isIndex {
			return nil // the swap x.f[i], x.f[j] = x.f[j], x.f[i] reads f
		}
		return v
	}
	setToo := func(e ast.Expr) {
		if _, v := fieldOf(e); v != nil {
			u.set[v] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					v := store(lhs)
					if v == nil {
						continue
					}
					rhs := n.Rhs
					if len(rhs) == len(n.Lhs) {
						rhs = rhs[i : i+1]
					}
					for _, r := range rhs {
						ast.Inspect(r, func(m ast.Node) bool {
							if e, ok := m.(ast.Expr); ok {
								if id, w := fieldOf(e); w == v {
									notRead[id] = true
								}
							}
							return true
						})
					}
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							store(e)
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setToo(n.X)
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					if _, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer); ptrRecv && !ptrX {
						setToo(n.X)
					}
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				for i, elt := range n.Elts {
					if kv, keyed := elt.(*ast.KeyValueExpr); ok && keyed {
						id := kv.Key.(*ast.Ident)
						notRead[id], u.set[info.Uses[id].(*types.Var).Origin()] = true, true
					} else if ok {
						u.set[st.Field(i).Origin()] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.readFields(info.Types[n.X].Type, false)
					u.readFields(info.Types[n.Y].Type, false)
				}
			case *ast.MapType:
				u.readFields(info.Types[n.Key].Type, false)
			case *ast.CallExpr:
				switch fn := callee(info, n).(type) {
				case *types.Builtin:
					if fn.Name() == "delete" || fn.Name() == "clear" {
						store(n.Args[0])
					}
				case *types.Func:
					if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
						(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode") {
						u.readFields(info.Types[n.Args[0]].Type, true)
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !notRead[id] {
			u.read[v.Origin()] = true
		}
	}
}

// callee returns the builtin, function or method that a call names, or
// nil when it calls a value.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// readFields counts as read every field of t that comparing two values of
// type t reads, through nested structs and arrays; or, with json, every
// exported field that encoding/json marshals from a value of type t,
// through pointers, slices, arrays and maps as well.
func (u *fieldUses) readFields(t types.Type, json bool) {
	if t == nil || u.seen[walked{t, json}] {
		return
	}
	u.seen[walked{t, json}] = true
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); !json || f.Exported() || f.Embedded() {
				u.read[f.Origin()] = true
				u.readFields(f.Type(), json)
			}
		}
	case *types.Array:
		u.readFields(t.Elem(), json)
	case *types.Map:
		if json {
			u.readFields(t.Key(), json)
			u.readFields(t.Elem(), json)
		}
	case interface{ Elem() types.Type }: // pointer, slice, channel
		if json {
			u.readFields(t.Elem(), json)
		}
	}
}
