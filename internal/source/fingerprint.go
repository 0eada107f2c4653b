package source

import "crypto/sha256"

// Fingerprint returns a content hash of the program: the sha256 of its
// printed (round-trip) source text, memoized per AST. Two programs with
// the same fingerprint print identically, so every downstream stage
// (compilation, transformation, simulation) treats them the same. The
// program must not be mutated after fingerprinting.
func Fingerprint(p *Program) [sha256.Size]byte {
	if h := p.fp.Load(); h != nil {
		return *h
	}
	h := sha256.Sum256([]byte(Print(p)))
	p.fp.Store(&h)
	return h
}
