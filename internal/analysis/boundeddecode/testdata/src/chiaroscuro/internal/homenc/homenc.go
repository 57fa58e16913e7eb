// Provider fixture for the boundeddecode analyzer: a decoder method
// with a Bound sibling, one without, and a package-level slab decoder
// pair. homenc itself is not a network-reachable package, so calls
// inside it are not flagged.
package homenc

import "errors"

type Ciphertext struct{ b []byte }

func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	c.b = append([]byte(nil), data...)
	return nil
}

func (c *Ciphertext) UnmarshalBinaryBound(data []byte, max int) error {
	if len(data) > max {
		return errors.New("too large")
	}
	return c.UnmarshalBinary(data) // out of scope: homenc is not network-reachable
}

type Share struct{ b []byte }

// UnmarshalText has no Bound sibling, so calls to it are never flagged.
func (s *Share) UnmarshalText(data []byte) error {
	s.b = append([]byte(nil), data...)
	return nil
}

// UnmarshalInts stands in for an unbounded slab decoder.
func UnmarshalInts(data []byte, n int) ([][]byte, []byte, error) {
	return UnmarshalIntsBound(data, n, len(data))
}

// UnmarshalIntsBound mirrors the real bounded slab decoder's shape: a
// count, an explicit per-integer bound, the decoded slab and the rest.
func UnmarshalIntsBound(data []byte, n, max int) ([][]byte, []byte, error) {
	if n > len(data) || max < 0 {
		return nil, nil, errors.New("too large")
	}
	return make([][]byte, n), data[n:], nil
}
