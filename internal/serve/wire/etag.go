package wire

import (
	"crypto/sha256"
	"encoding/hex"
)

// AppendETag appends the entity tag of a reply whose SHA-256 digest is
// sum: the digest in lowercase hex, quoted.
func AppendETag(dst []byte, sum *[sha256.Size]byte) []byte {
	dst = append(dst, '"')
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, '"')
}

// ParseETag reads the digest back from an entity tag AppendETag wrote.
// ok is false for any other value: a weak tag, a list, "*", an unquoted
// tag, or one of another length or with other than lowercase hex digits.
func ParseETag(tag string) (sum [sha256.Size]byte, ok bool) {
	if len(tag) != 2+2*sha256.Size || tag[0] != '"' || tag[len(tag)-1] != '"' {
		return sum, false
	}
	for i := range sum {
		hi, lo := hexDigit(tag[1+2*i]), hexDigit(tag[2+2*i])
		if hi > 0xf || lo > 0xf {
			return sum, false
		}
		sum[i] = hi<<4 | lo
	}
	return sum, true
}

// hexDigit is a lowercase hex digit's value, 0xff for any other byte.
func hexDigit(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 0xff
}
