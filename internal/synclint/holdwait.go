package synclint

// HoldWaitAnalyzer finds blocking calls reachable while an exclusion
// bracket is held — the paper's §5.2 nested-monitor-call hazard [18]. A
// Wait or Enqueue on a component of the HELD mechanism is the intended
// use (the mechanism releases itself before blocking) and is exempt;
// everything else that can block — a P, an inner Enter or Lock, a CSP
// channel operation, a CCR/path-expression operation, or a call to a
// function or local closure whose summary may acquire or park — is
// reported. Held means an exclusion bracket (Enter, Lock, or the
// mechanism whose Do, Execute or Exec body is running), read from the
// held-lock replay; a P'd semaphore is not one.
var HoldWaitAnalyzer = &Analyzer{
	Name: "holdwait",
	Doc:  "blocking call reachable while an outer mechanism is held (nested-monitor hazard)",
	run:  runHoldWait,
}

func runHoldWait(pass *Pass) {
	m := pass.Model
	for _, f := range m.frames {
		m.replay(f, func(ev *summaryEvent, sites, all []AcqSite) {
			var held []AcqSite
			for _, h := range all {
				if h.Op == OpAcquire || bracketedBody(h.Op) {
					held = append(held, h)
				}
			}
			if len(held) == 0 {
				return
			}
			top := held[len(held)-1].Ref.Disp
			switch {
			case ev.kind == evCall:
				if len(sites) > 0 {
					pass.reportf(ev.pos, "call to %s may block while %s is held", ev.name, top)
				}
			case ev.op == OpAcquire:
				pass.reportf(ev.pos, "%s acquired while %s is held", ev.ref.Disp, top)
			case ev.op == OpWait || ev.op == OpEnqueue || ev.op == OpJoin:
				// On a component of a held mechanism the operation releases
				// that mechanism by construction.
				if !holds(held, ev.ref.Owner) {
					pass.reportf(ev.pos, "%s on %s blocks while %s is held", opWord(ev.op), ev.ref.Disp, top)
				}
			case ev.op == OpExec && holds(held, ev.ref.Key):
				// A path operation nested in another operation of the SAME
				// set is the hierarchical-path idiom of §5.1 (requestread =
				// begin read end); whether the nesting is admissible is
				// decided by the compiled path at run time, not a
				// nested-monitor hazard.
			default:
				pass.reportf(ev.pos, "%s on %s blocks while %s is held", opWord(ev.op), ev.ref.Disp, top)
			}
		})
	}
}

func opWord(c OpClass) string {
	switch c {
	case OpWait:
		return "Wait"
	case OpEnqueue:
		return "Enqueue"
	case OpJoin:
		return "Join"
	case OpSemP:
		return "P"
	case OpChanOp:
		return "channel operation"
	case OpExecute, OpAwait:
		return "region operation"
	case OpExec:
		return "path operation"
	case OpDo:
		return "Do"
	}
	return "blocking operation"
}
