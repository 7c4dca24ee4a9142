package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// maxFrame bounds one record's payload. Trial results are a few
// kilobytes (tens with traces attached); the bound exists so a corrupt
// length prefix can never drive the reader into a giant allocation.
const maxFrame = 16 << 20

// frameLog is the package's one durable format: an append-only file that
// opens with a magic string and holds records, each framed by a uvarint
// payload length and a CRC32 of the payload. Each frame is written in one
// write to a file opened with O_APPEND and fsynced, so processes appending
// to one file interleave whole frames. A reopen that races another
// process's append can take its half-written frame for a torn tail and
// cut it: the file stays a committed prefix, short of that record.
type frameLog struct {
	kind  string // the format's name in errors
	magic string // opens every file; its version digit guards the frame format
}

// open opens (creating if absent) the log at path for appending, calls
// decode on each committed payload in order, and returns the file and the
// record count. An empty file gets the magic; a torn tail is truncated,
// so appends continue after the last committed record.
func (fl frameLog) open(path string, decode func(payload []byte) error) (*os.File, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: open %s: %w", fl.kind, err)
	}
	size, committed, n, err := fl.read(path, decode)
	switch {
	case err != nil:
	case size == 0:
		if _, err = f.WriteString(fl.magic); err == nil {
			err = f.Sync()
		}
	case committed < size:
		err = f.Truncate(committed)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, n, nil
}

// read reads the log at path and scans it (see scan), naming the file in
// a scan error. An empty file reads as a log of no records.
func (fl frameLog) read(path string, decode func(payload []byte) error) (size, committed int64, n int, err error) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return 0, 0, 0, err
	}
	committed, n, err = fl.scan(data, decode)
	if err != nil {
		err = fmt.Errorf("campaign: %s %s: %w", fl.kind, path, err)
	}
	return int64(len(data)), committed, n, err
}

// appendFrame writes payload to f, a frame log opened for appending, as
// one frame in one write, and fsyncs. The record is durable (or absent)
// when it returns: there is no state in between that a reader could
// half-read.
func appendFrame(f *os.File, payload []byte) error {
	frame := make([]byte, 0, binary.MaxVarintLen64+4+len(payload))
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, err := f.Write(frame); err != nil {
		return err
	}
	return f.Sync()
}

// scan walks the frames in data, calling decode on each payload, and
// returns the byte length of the committed prefix and the record count.
// A frame cut short at the end of data is a torn tail: the scan stops
// before it without error. A complete frame that fails its checksum or
// that decode rejects is corruption, reported as an error, and so is a
// length that runs past the end of data when a complete frame with a
// valid checksum starts after it: a crash tears only the last frame, so
// the length itself must be corrupt, and cutting the file there would
// drop committed records.
func (fl frameLog) scan(data []byte, decode func([]byte) error) (committed int64, n int, err error) {
	if !bytes.HasPrefix(data, []byte(fl.magic)) {
		return 0, 0, fmt.Errorf("bad magic (not a %s)", fl.kind)
	}
	off := len(fl.magic)
	committed = int64(off)
	for off < len(data) {
		size, vn := binary.Uvarint(data[off:])
		if vn == 0 && len(data)-off < binary.MaxVarintLen64 {
			return committed, n, nil // torn tail: a proper prefix of a length
		}
		if vn <= 0 {
			return committed, n, fmt.Errorf("record %d: malformed length prefix", n)
		}
		if size > maxFrame {
			return committed, n, fmt.Errorf("record %d: length %d exceeds limit", n, size)
		}
		body := off + vn
		if body+4+int(size) > len(data) {
			if next := nextFrame(data, off+1); next >= 0 {
				return committed, n, fmt.Errorf("record %d: length %d runs past the end of the file, but a frame starts at byte %d", n, size, next)
			}
			return committed, n, nil // torn tail
		}
		payload := data[body+4 : body+4+int(size)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[body:]) {
			return committed, n, fmt.Errorf("record %d: checksum mismatch", n)
		}
		if err := decode(payload); err != nil {
			return committed, n, fmt.Errorf("record %d: %w", n, err)
		}
		off = body + 4 + int(size)
		committed = int64(off)
		n++
	}
	return committed, n, nil
}

// nextFrame returns the offset of the first complete frame with a valid
// checksum that starts at or after from in data, or -1 if there is none.
// Empty frames do not count: no record has an empty payload, and five
// zero bytes, which a crash can leave at the end of a file, read as one.
func nextFrame(data []byte, from int) int {
	for p := from; p < len(data); p++ {
		size, vn := binary.Uvarint(data[p:])
		if vn <= 0 || size == 0 || size > maxFrame {
			continue
		}
		body := p + vn
		if body+4+int(size) > len(data) {
			continue
		}
		if crc32.ChecksumIEEE(data[body+4:body+4+int(size)]) == binary.LittleEndian.Uint32(data[body:]) {
			return p
		}
	}
	return -1
}
