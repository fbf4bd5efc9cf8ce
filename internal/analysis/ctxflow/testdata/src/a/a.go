package a

import "context"

func DoContext(ctx context.Context) error { return ctx.Err() }

// Minting a root mid-library detaches the work from the caller.
func Mint() error {
	ctx := context.Background() // want `context.Background in library code`
	return DoContext(ctx)
}

func Todo() error {
	return DoContext(context.TODO()) // want `context.TODO in library code`
}

// The compat-shim shape: no ctx parameter, Background fed straight into a
// context-first call.
func Shim() error {
	return DoContext(context.Background())
}

// Having a ctx and ignoring it is never a shim.
func Drops(ctx context.Context) error {
	return DoContext(context.Background()) // want `discards this function's ctx parameter`
}

// Nil-ctx defaulting re-roots an absent context in place.
func Defaulted(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return DoContext(ctx)
}

func Suppressed() error {
	return DoContext(context.TODO()) //lint:allow ctxflow migration staging area
}
