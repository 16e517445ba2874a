// Fixture for the //lint:ignore suppression path, run under the FULL
// analyzer suite: well-formed directives silence their analyzer on
// the covered line, and malformed directives are findings themselves
// (pseudo-analyzer "suppress"). The want expectations for malformed
// directives are block comments so they can share the directive's
// line.
package suppress

import "context"

func sink(ctx context.Context) {}

// --- well-formed suppressions: no diagnostics anywhere below ---

func lineAbove() {
	//lint:ignore ctxpoll fixture exercises the line-above suppression path
	sink(context.Background())
}

func trailing() {
	sink(context.TODO()) //lint:ignore ctxpoll fixture exercises the trailing-comment suppression path
}

func commaList() {
	sink(context.Background()) //lint:ignore epochmutate,ctxpoll fixture exercises the comma-separated analyzer list
}

// --- malformed directives are findings of pseudo-analyzer "suppress" ---

func malformed() {
	/* want "bare //lint:ignore" */ //lint:ignore
	sink(nil)
	/* want "suppression without a reason" */ //lint:ignore ctxpoll
	sink(nil)
	/* want `unknown analyzer "nosuchanalyzer"` */ //lint:ignore nosuchanalyzer reason text present
	sink(nil)
}

// A reasonless directive does not suppress: the violation surfaces too.
func reasonlessDoesNotSuppress() {
	/* want "suppression without a reason" */ //lint:ignore ctxpoll
	sink(context.Background())                // want "context.Background"
}
