package lockserv

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// WAL frame format. Every lease transition the service must not
// forget — grant, renew, release, expire — is one length-prefixed,
// checksummed frame appended to wal.log in a single write:
//
//	u32 payload length (little-endian)
//	u32 CRC-32 (Castagnoli) of the payload
//	payload: one walRecord as JSON
//
// The single-write discipline matters: a process crash can tear at
// most the final frame, and the reader's torn-tail policy (stop at
// the last frame whose length is plausible and whose checksum
// verifies) recovers everything before it without needing any repair
// step. JSON payloads keep the log greppable; the frame envelope, not
// the payload encoding, carries the integrity guarantee.

// walFrameHeader is the fixed envelope size.
const walFrameHeader = 8

// walMaxPayload bounds a plausible frame so a torn length prefix
// cannot make the reader skip gigabytes hunting for a checksum match.
const walMaxPayload = 1 << 20

// walCRC is the Castagnoli table (hardware-accelerated on amd64/arm64).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one durable lease transition. Seq is the store's global
// sequence number; replay skips records already folded into a
// snapshot (Seq <= snapshot seq) and duplicated tail frames (Seq <=
// last applied), which makes replay idempotent under CrashDup tails.
type walRecord struct {
	Seq          uint64 `json:"seq"`
	Op           string `json:"op"` // grant, renew, release, expire
	Tenant       string `json:"tenant"`
	Key          string `json:"key"`
	Owner        string `json:"owner,omitempty"`
	Token        uint64 `json:"token,omitempty"`
	ExpiryUnixNS int64  `json:"expiry_unix_ns,omitempty"`
}

// appendFrame appends rec's frame to dst, reusing dst's capacity. The
// append path runs this on every acked operation, so the payload is
// rendered by a hand-rolled JSON emitter instead of json.Marshal —
// the output is ordinary JSON (json.Unmarshal reads it back), but the
// encoder allocates nothing once dst's capacity is warm, which is
// most of what keeps the durable service within its overhead budget.
func appendFrame(dst []byte, rec *walRecord) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	dst = appendWalJSON(dst, rec)
	payload := dst[base+walFrameHeader:]
	if len(payload) > walMaxPayload {
		return dst[:base], fmt.Errorf("lockserv: wal record %d bytes exceeds frame cap", len(payload))
	}
	binary.LittleEndian.PutUint32(dst[base:base+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:base+8], crc32.Checksum(payload, walCRC))
	return dst, nil
}

// appendWalJSON renders rec as the same JSON object json.Marshal would
// produce for well-formed UTF-8 inputs, with omitempty semantics for
// the optional fields.
func appendWalJSON(dst []byte, rec *walRecord) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, rec.Op...) // ops are internal constants, never escaped
	dst = append(dst, `","tenant":`...)
	dst = appendJSONString(dst, rec.Tenant)
	dst = append(dst, `,"key":`...)
	dst = appendJSONString(dst, rec.Key)
	if rec.Owner != "" {
		dst = append(dst, `,"owner":`...)
		dst = appendJSONString(dst, rec.Owner)
	}
	if rec.Token != 0 {
		dst = append(dst, `,"token":`...)
		dst = strconv.AppendUint(dst, rec.Token, 10)
	}
	if rec.ExpiryUnixNS != 0 {
		dst = append(dst, `,"expiry_unix_ns":`...)
		dst = strconv.AppendInt(dst, rec.ExpiryUnixNS, 10)
	}
	return append(dst, '}')
}

// appendJSONString quotes s, escaping what JSON requires (quote,
// backslash, control bytes). Multi-byte runes pass through untouched:
// the payload is UTF-8 in, UTF-8 out.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeFrames walks data frame by frame, stopping at the first frame
// that is short, implausibly sized, zero-length, or checksum-broken.
// It returns the decoded records, the byte length of the valid prefix,
// and the length of the torn tail: the bytes past the valid prefix up
// to the last nonzero byte. An all-zero remainder is not torn — it is
// the mmap appender's preallocated padding, the normal tail of a file
// whose process never got to close cleanly — and a zero length prefix
// marks that boundary (no real frame has an empty payload).
// A torn tail is not an error — it is the expected shape of a crash —
// so the only error return is a payload that passes its checksum but
// fails to parse, which means the writer was broken, not the crash.
func decodeFrames(data []byte) (recs []walRecord, validLen int64, tornBytes int64, err error) {
	off := int64(0)
	for int64(len(data))-off >= walFrameHeader {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 {
			break // padding (or a frame that never started)
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > walMaxPayload || off+walFrameHeader+n > int64(len(data)) {
			break // torn length prefix or truncated payload
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.Checksum(payload, walCRC) != sum {
			break // torn or garbled tail
		}
		var rec walRecord
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			return recs, off, tornTail(data, off), fmt.Errorf("lockserv: wal frame at %d: checksummed payload unparseable: %w", off, uerr)
		}
		recs = append(recs, rec)
		off += walFrameHeader + n
	}
	return recs, off, tornTail(data, off), nil
}

// tornTail measures the torn bytes past the valid prefix: everything
// up to the last nonzero byte. Trailing zeros are preallocation, not
// damage.
func tornTail(data []byte, validLen int64) int64 {
	end := int64(len(data))
	for end > validLen && data[end-1] == 0 {
		end--
	}
	return end - validLen
}
