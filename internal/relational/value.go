// Package relational implements the minimal typed relational substrate DART
// operates on: database schemes with attributes over the domains Z (integers),
// R (reals) and S (strings), relations, tuples, and measure-attribute sets.
//
// The package mirrors Section 3 of the paper: a relational scheme is a sorted
// predicate R(A1:D1, ..., An:Dn); a database scheme D designates a subset M_D
// of its numerical attributes as measure attributes, which are the only
// attributes repairs may update.
package relational

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Domain identifies one of the three attribute domains of the paper.
type Domain int

const (
	// DomainInt is the infinite domain of integers (Z).
	DomainInt Domain = iota
	// DomainReal is the domain of reals (R).
	DomainReal
	// DomainString is the domain of strings (S).
	DomainString
)

// Numerical reports whether the domain is Z or R. Only numerical attributes
// may be designated as measure attributes.
func (d Domain) Numerical() bool { return d == DomainInt || d == DomainReal }

// String returns the paper's name for the domain.
func (d Domain) String() string {
	switch d {
	case DomainInt:
		return "Z"
	case DomainReal:
		return "R"
	case DomainString:
		return "S"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// ParseDomain converts a domain name ("Z"/"int", "R"/"real", "S"/"string")
// into a Domain.
func ParseDomain(s string) (Domain, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "z", "int", "integer":
		return DomainInt, nil
	case "r", "real", "float":
		return DomainReal, nil
	case "s", "string", "str":
		return DomainString, nil
	default:
		return 0, fmt.Errorf("relational: unknown domain %q", s)
	}
}

// Value is a single typed database value: an integer, a real, or a string.
// The zero Value is the integer 0.
type Value struct {
	kind Domain
	i    int64
	r    float64
	s    string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: DomainInt, i: v} }

// Real returns a real Value.
func Real(v float64) Value { return Value{kind: DomainReal, r: v} }

// String returns a string Value.
func String(v string) Value { return Value{kind: DomainString, s: v} }

// Kind reports the domain the value belongs to.
func (v Value) Kind() Domain { return v.kind }

// IsNumeric reports whether the value lies in a numerical domain.
func (v Value) IsNumeric() bool { return v.kind.Numerical() }

// AsInt returns the value as an int64. It panics if the value is a string.
// Real values are truncated toward zero.
func (v Value) AsInt() int64 {
	switch v.kind {
	case DomainInt:
		return v.i
	case DomainReal:
		return int64(v.r)
	default:
		panic(fmt.Sprintf("relational: AsInt on string value %q", v.s))
	}
}

// AsFloat returns the numeric value as a float64. It panics if the value is
// a string.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case DomainInt:
		return float64(v.i)
	case DomainReal:
		return v.r
	default:
		panic(fmt.Sprintf("relational: AsFloat on string value %q", v.s))
	}
}

// AsString returns the string content of a string value. It panics on
// numeric values; use String() for display formatting.
func (v Value) AsString() string {
	if v.kind != DomainString {
		panic(fmt.Sprintf("relational: AsString on %s value", v.kind))
	}
	return v.s
}

// Equal reports whether two values are identical in kind and content.
// An integer and a real are never Equal even when numerically equal;
// use NumericEqual for cross-domain numeric comparison.
func (v Value) Equal(o Value) bool { return v == o }

// NumericEqual reports whether two numeric values are numerically equal
// within tolerance eps. It returns false if either value is a string.
func (v Value) NumericEqual(o Value, eps float64) bool {
	if !v.IsNumeric() || !o.IsNumeric() {
		return false
	}
	d := v.AsFloat() - o.AsFloat()
	return d <= eps && d >= -eps
}

// Compare orders values: by kind first (Z < R < S), then by content.
// It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case DomainInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
	case DomainReal:
		switch {
		case v.r < o.r:
			return -1
		case v.r > o.r:
			return 1
		}
	case DomainString:
		return strings.Compare(v.s, o.s)
	}
	return 0
}

// String renders the value for display: integers and reals in decimal
// notation, strings verbatim.
func (v Value) String() string {
	switch v.kind {
	case DomainInt:
		return strconv.FormatInt(v.i, 10)
	case DomainReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	default:
		return v.s
	}
}

// Append appends the String form of v to dst.
func (v Value) Append(dst []byte) []byte {
	switch v.kind {
	case DomainInt:
		return strconv.AppendInt(dst, v.i, 10)
	case DomainReal:
		return strconv.AppendFloat(dst, v.r, 'g', -1, 64)
	default:
		return append(dst, v.s...)
	}
}

// AppendIdentity appends an encoding of v under which two values encode
// alike exactly when they have the same kind and the same integer, the
// same float bits or the same string. Unlike Equal, it tells -0 from +0
// and finds a NaN identical to a NaN of the same bits.
func (v Value) AppendIdentity(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case DomainInt:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case DomainReal:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.r))
	default:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	}
}

// ParseValue parses the textual form of a value belonging to domain d.
// String values are taken verbatim (surrounding whitespace trimmed).
func ParseValue(s string, d Domain) (Value, error) {
	s = strings.TrimSpace(s)
	switch d {
	case DomainInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parsing %q as Z: %w", s, err)
		}
		return Int(i), nil
	case DomainReal:
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parsing %q as R: %w", s, err)
		}
		return Real(r), nil
	case DomainString:
		return String(s), nil
	default:
		return Value{}, fmt.Errorf("relational: unknown domain %v", d)
	}
}

// FromFloat builds a Value in domain d from a float64, rounding to the
// nearest integer for DomainInt. It returns an error for DomainString.
func FromFloat(f float64, d Domain) (Value, error) {
	switch d {
	case DomainInt:
		if f >= 0 {
			return Int(int64(f + 0.5)), nil
		}
		return Int(int64(f - 0.5)), nil
	case DomainReal:
		return Real(f), nil
	default:
		return Value{}, fmt.Errorf("relational: cannot build string value from float %v", f)
	}
}
