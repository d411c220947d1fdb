package queue

import "repro/internal/enc"

// packedHeaders is an element's headers as they live in a queue: the
// enc.Buffer.StringMap encoding itself — a count, then key/value pairs,
// each length-prefixed, keys strictly ascending — as one immutable string.
// "" is no headers. The log, the snapshot and a registration's element copy
// take it verbatim, a lookup reads it in place, and the map[string]string
// of the public Element is built from it only where an element leaves the
// repository (elem.element).
//
// Every packedHeaders is made by packHeaders or readPackedHeaders, which
// between them guarantee it is well-formed and free of duplicate keys, so
// the readers below do not re-validate — and an in-place lookup and the
// materialised map cannot disagree.
type packedHeaders string

// packHeaders packs a caller's map.
func packHeaders(m map[string]string) packedHeaders {
	if len(m) == 0 {
		return ""
	}
	b := enc.GetBuffer()
	b.StringMap(m)
	p := packedHeaders(b.Bytes())
	enc.PutBuffer(b)
	return p
}

// readPackedHeaders decodes a StringMap encoding into the packed form: one
// copy of r's bytes when they are already what packHeaders would write
// (everything this repository wrote since headers were packed). Anything
// else — an older log's map-ordered pairs, hostile bytes with duplicate
// keys — goes through the map, where the last duplicate wins, and is
// packed afresh.
func readPackedHeaders(r *enc.Reader) packedHeaders {
	view, canonical := r.StringMapView()
	if canonical || r.Err() != nil {
		return packedHeaders(view)
	}
	return packHeaders(enc.NewReader(view).StringMap())
}

// uvarint reads one unsigned varint off the front of a well-formed packing.
func (h packedHeaders) uvarint() (uint64, packedHeaders) {
	var v uint64
	for i, shift := 0, uint(0); i < len(h); i, shift = i+1, shift+7 {
		c := h[i]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, h[i+1:]
		}
	}
	return 0, ""
}

// field reads one length-prefixed string off the front.
func (h packedHeaders) field() (string, packedHeaders) {
	n, h := h.uvarint()
	return string(h[:n]), h[n:]
}

// get returns the value of key, "" when absent — what indexing the
// materialised map returns.
func (h packedHeaders) get(key string) string {
	n, h := h.uvarint()
	for ; n > 0; n-- {
		var k, v string
		k, h = h.field()
		v, h = h.field()
		if k == key {
			return v
		}
	}
	return ""
}

// toMap materialises the headers (nil for none). Keys and values are
// substrings of the packing: one map, no per-string allocation.
func (h packedHeaders) toMap() map[string]string {
	n, h := h.uvarint()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for ; n > 0; n-- {
		var k, v string
		k, h = h.field()
		v, h = h.field()
		m[k] = v
	}
	return m
}
