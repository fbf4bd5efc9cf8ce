// Package laketest gives tests a terse way to populate a Lake: one-line
// helpers routed through Lake.Apply like production code, one epoch per
// call. (Lake has no mutators besides Apply; its package's own tests carry
// their own copies, since this package imports lake.)
package laketest

import (
	"context"
	"fmt"

	"gent/internal/lake"
	"gent/internal/table"
)

// Add applies Put mutations for each table in one epoch turn. It panics on
// error — test fixtures are static, so a failed Apply is a bug in the test.
func Add(l *lake.Lake, tables ...*table.Table) {
	muts := make([]lake.Mutation, len(tables))
	for i, t := range tables {
		muts[i] = lake.Put(t)
	}
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		panic(fmt.Sprintf("laketest.Add: %v", err))
	}
}

// Remove applies Drop mutations for each named table in one epoch turn.
func Remove(l *lake.Lake, names ...string) {
	muts := make([]lake.Mutation, len(names))
	for i, name := range names {
		muts[i] = lake.Drop(name)
	}
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		panic(fmt.Sprintf("laketest.Remove: %v", err))
	}
}
