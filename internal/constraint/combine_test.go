package constraint

// The CCMgr validates and negotiates every constraint on its own, so no
// production path combines degrees. The §3.1 rule for the degree of a
// constraint set lives here, beside the tests of its algebra.

// Combine merges the validation results of two constraints into the result
// for the set, per the rules of §3.1: Violated dominates everything,
// otherwise Uncheckable dominates, otherwise the worse of the possibly-*
// degrees, otherwise Satisfied.
func Combine(a, b Degree) Degree {
	if a == Violated || b == Violated {
		return Violated
	}
	if a == Uncheckable || b == Uncheckable {
		return Uncheckable
	}
	if a < b {
		return a
	}
	return b
}

// CombineAll folds Combine over a set of degrees. The empty set is Satisfied.
func CombineAll(ds ...Degree) Degree {
	out := Satisfied
	for _, d := range ds {
		out = Combine(out, d)
	}
	return out
}
