package bitstr

// SetAt returns a copy of b with the bit at index i set to bit (any nonzero
// value is treated as 1). It panics if i is out of range.
func (b Bits) SetAt(i int, bit byte) Bits {
	buf := []byte(b.s)
	if bit != 0 {
		buf[i] = '1'
	} else {
		buf[i] = '0'
	}
	return Bits{s: string(buf)}
}
