package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strconv"
)

// Inputs. Everything the program under test sees — request bodies and
// rids — is derived from -seed here; the program receives only these.

const (
	minBody  = 64
	maxBody  = 1024
	bodyPool = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// gen produces one client's request stream. Bodies are 64–1024 B (mean
// ≈ 256 B: 64 plus a truncated exponential), cut from a seeded random
// pool so generating a request costs no more than picking an offset.
type gen struct {
	rng  *rand.Rand
	pool []byte
}

func newGen(seed int64, client int) *gen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	pool := make([]byte, bodyPool)
	rng.Read(pool)
	return &gen{rng: rng, pool: pool}
}

// body returns the next request body. It aliases the pool: callers must
// not modify it (the queue manager copies on enqueue).
func (g *gen) body() []byte {
	n := minBody + int(g.rng.ExpFloat64()*200)
	if n > maxBody {
		n = maxBody
	}
	off := g.rng.Intn(bodyPool - n)
	return g.pool[off : off+n]
}

// rid names request seq of client c; parseRID inverts it.
func rid(c int, seq uint64) string {
	return "c" + strconv.Itoa(c) + "." + strconv.FormatUint(seq, 10)
}

func parseRID(s string) (c int, seq uint64, ok bool) {
	if len(s) < 4 || s[0] != 'c' {
		return 0, 0, false
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '.' {
			ci, err1 := strconv.Atoi(s[1:i])
			sq, err2 := strconv.ParseUint(s[i+1:], 10, 64)
			return ci, sq, err1 == nil && err2 == nil
		}
	}
	return 0, 0, false
}

// checksum is what a reply must echo for its request.
func checksum(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

func checksumBytes(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(nil, checksum(body))
}

func replyMatches(reply, body []byte) bool { return replyHasSum(reply, checksum(body)) }

func replyHasSum(reply []byte, sum uint32) bool {
	return len(reply) == 4 && binary.LittleEndian.Uint32(reply) == sum
}
