package memsys

import (
	"math/rand"
	"reflect"
)

// CloneSource returns an independent copy of a math/rand source: the
// same dynamic type in the same state, so it draws next exactly what src
// draws next. math/rand exposes no source state, so a snapshot taken in
// this process keeps its random streams' positions as clones, and a
// fork from it copies them instead of re-drawing up to the position.
// Every math/rand source is a pointer to a plain struct, which is what
// the copy assumes.
func CloneSource[S rand.Source](src S) S {
	v := reflect.ValueOf(src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return c.Interface().(S)
}
