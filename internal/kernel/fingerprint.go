package kernel

// State fingerprinting for schedule-space pruning (package explore).
//
// The fingerprint is a 64-bit hash of the scheduler-visible state of a
// simulation: for every live process its identity, scheduling state,
// pending permit, wake time, and the number of scheduling steps it has
// completed; plus the virtual clock. Per-process contributions are
// combined by XOR, so the hash is maintained incrementally — a state
// transition swaps one process's old contribution for its new one in O(1)
// — and is independent of the *order* of the ready set. Order
// independence is deliberate: two states whose ready sets hold the same
// processes in different stamp orders reach the same set of successor
// states under systematic exploration (the DFS branches every index), so
// identifying them prunes redundant subtrees without hiding behavior.
//
// The per-process step count stands in for the program counter: a
// process's position in its (deterministic) body is determined by how
// many times it has been scheduled, provided its control flow between
// kernel operations depends only on state the kernel can see. Solution
// code whose branching manifests as kernel operations (park or not park,
// unpark or not) satisfies this; purely internal data divergence is
// invisible, which is why exploration offers an Audit cross-check
// rather than claiming the hash is a sound state abstraction.

// fpMix is a splitmix64-style finalizer: a bijective mix whose output
// bits all depend on all input bits. Bijectivity matters — XOR-combining
// per-process hashes only discriminates well if no two field encodings
// collide systematically.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Field salts keep the packed encoding injective-ish before mixing.
const (
	fpSaltID    = 0x9e3779b97f4a7c15
	fpSaltState = 0xc2b2ae3d27d4eb4f
	fpSaltSched = 0x165667b19e3779f9
	fpSaltWake  = 0x27d4eb2f165667c5
	fpSaltClock = 0x85ebca77c2b2ae63
	fpSaltPerm  = 0x2545f4914f6cdd1d
)

// fpContribution hashes one process's scheduler-visible state. Wake time
// is folded in only while sleeping, so a stale wakeAt from an earlier
// sleep cannot distinguish otherwise-identical states.
func fpContribution(sp *simProc) uint64 {
	h := uint64(sp.proc.id) * fpSaltID
	h ^= uint64(sp.state) * fpSaltState
	h ^= sp.schedCount * fpSaltSched
	if sp.state == stateSleeping {
		h ^= uint64(sp.wakeAt) * fpSaltWake
	}
	if sp.permit {
		h ^= fpSaltPerm
	}
	return fpMix(h)
}

// touchFP re-hashes sp after a state transition, swapping its old
// contribution out of the kernel's running fingerprint.
func (k *SimKernel) touchFP(sp *simProc) {
	c := fpContribution(sp)
	k.fp ^= sp.fpContrib ^ c
	sp.fpContrib = c
}

// Fingerprint reports the state hash at the current instant: the XOR of
// process contributions plus the virtual clock. Two simulations that have
// reached fingerprint-equal states have (up to hash collision and the
// caveats above) the same scheduler-visible state and therefore the same
// reachable behaviors.
func (k *SimKernel) Fingerprint() uint64 {
	return k.fp ^ fpMix(uint64(k.now)*fpSaltClock)
}

// RunFingerprint hashes the entire run so far: a chain over the state
// fingerprint and the scheduling choice at every decision point. Unlike
// Fingerprint (an instantaneous, order-independent state hash), the run
// fingerprint is order-sensitive — two runs agree only if they made the
// same decisions from the same states in the same sequence. Schedule
// artifacts record it at save time and compare it at replay time, so a
// program that drifted since the recording is detected even when the
// replay happens to stay in range at every step.
func (k *SimKernel) RunFingerprint() uint64 {
	fps := k.fps
	if len(fps) > len(k.choices) {
		fps = fps[:len(k.choices)]
	}
	h := fpMix(uint64(len(fps)) * fpSaltID)
	for i, fp := range fps {
		c := k.choices[i]
		h = fpMix(h ^ fp)
		h = fpMix(h ^ uint64(c.Ready)<<32 ^ uint64(uint32(c.Picked)))
	}
	return h
}
