// Command iamdump inspects MSTable files and database directories:
// the physical layout (data region, hole, metadata region), the
// sequences with their bounds and sizes, and optionally every record.
// It also runs the deep tree verifier over a whole database.
//
// Usage:
//
//	iamdump file <path.mst>            # one table's layout + sequences
//	iamdump file -records <path.mst>   # ... plus every record
//	iamdump file -verify <path.mst>    # ... plus re-read every block,
//	                                   # checking every stored CRC
//	iamdump db <dir>                   # manifest + level summary
//	iamdump verify <dir>               # structure, then every table re-read
//	                                   # as scrub does; prints the totals
//	iamdump vlog <path.vlg>            # one value-log segment's records
//	iamdump vlog -verify <path.vlg>    # ... re-checking every record CRC
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"iamdb/internal/corrupt"
	"iamdb/internal/kv"
	"iamdb/internal/manifest"
	"iamdb/internal/table"
	"iamdb/internal/tableset"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

func main() {
	records := flag.Bool("records", false, "dump every record")
	verify := flag.Bool("verify", false, "re-read every block of the file and check every stored CRC")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: iamdump [-records] [-verify] file|db|verify|vlog <path>")
		os.Exit(2)
	}
	switch args[0] {
	case "file":
		// Accept the flags after the mode word too (flag.Parse stops at
		// the first positional argument).
		ff := flag.NewFlagSet("file", flag.ExitOnError)
		rec := ff.Bool("records", *records, "dump every record")
		ver := ff.Bool("verify", *verify, "re-read every block of the file and check every stored CRC")
		_ = ff.Parse(args[1:])
		if ff.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: iamdump file [-records] [-verify] <path.mst>")
			os.Exit(2)
		}
		dumpFile(ff.Arg(0), *rec, *ver)
	case "db":
		dumpDB(args[1])
	case "verify":
		verifyDB(args[1])
	case "vlog":
		vf := flag.NewFlagSet("vlog", flag.ExitOnError)
		rec := vf.Bool("records", *records, "dump every record")
		ver := vf.Bool("verify", *verify, "re-read every record and check every stored CRC")
		_ = vf.Parse(args[1:])
		if vf.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: iamdump vlog [-records] [-verify] <path.vlg>")
			os.Exit(2)
		}
		dumpVlog(vf.Arg(0), *rec, *ver)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", args[0])
		os.Exit(2)
	}
}

func dumpFile(path string, withRecords, verify bool) {
	fs := vfs.NewOSFS()
	tbl, err := table.Open(fs, path, 0, table.Options{})
	if err != nil {
		fatalf("open: %v", err)
	}
	defer tbl.Close()

	fmt.Printf("MSTable %s\n", path)
	fmt.Printf("  capacity:   %d bytes\n", tbl.Capacity())
	fmt.Printf("  data:       %d bytes (front region)\n", tbl.DataSize())
	fmt.Printf("  metadata:   %d bytes (tail region)\n", tbl.MetaSize())
	hole := tbl.Capacity() - tbl.UsedBytes()
	fmt.Printf("  hole:       %d bytes (%.1f%% free for appends)\n",
		hole, 100*float64(hole)/float64(tbl.Capacity()))
	fmt.Printf("  sequences:  %d, records: %d\n", tbl.NumSeqs(), tbl.Entries())
	if err := tbl.Suspect(); err != nil {
		// Lost-commit evidence at open: the listing below is the file at
		// the generation it fell back to.
		fmt.Printf("  suspect:    %v\n", err)
	}
	if r := tbl.UserRange(); !r.Empty() {
		fmt.Printf("  user range: %q .. %q\n", r.Lo, r.Hi)
	}
	for i := 0; i < tbl.NumSeqs(); i++ {
		m := tbl.SeqMetaAt(i)
		su, ss, _, _ := kv.ParseInternalKey(m.Smallest)
		lu, ls, _, _ := kv.ParseInternalKey(m.Largest)
		fmt.Printf("  seq %d: %d records, %d bytes @%d, keys %q@%d .. %q@%d, bloom %dB, index %dB\n",
			i, m.Entries, m.DataLen, m.DataOff, su, ss, lu, ls, len(m.Bloom), len(m.RawIndex))
	}
	if withRecords {
		it := tbl.NewIter()
		defer it.Close()
		for it.First(); it.Valid(); it.Next() {
			fmt.Printf("    %s = %q\n", kv.InternalKeyString(it.Key()), it.Value())
		}
		if err := it.Err(); err != nil {
			fatalf("iterate: %v", err)
		}
	}
	if verify {
		st, err := tbl.Verify(nil)
		if err != nil {
			var ce *corrupt.Error
			if errors.As(err, &ce) {
				if ce.Offset >= 0 {
					fmt.Printf("  verify:     FAILED at offset %d (%s layer)", ce.Offset, ce.Layer)
				} else {
					fmt.Printf("  verify:     FAILED (%s layer)", ce.Layer)
				}
				if ce.Got != 0 || ce.Want != 0 {
					fmt.Printf(": crc stored %08x, computed %08x", ce.Got, ce.Want)
				}
				if ce.Detail != "" {
					fmt.Printf(": %s", ce.Detail)
				}
				fmt.Println()
				os.Exit(1)
			}
			fatalf("verify: %v", err)
		}
		fmt.Printf("  verify:     OK — %d seqs, %d blocks, %d bytes, %d entries, every CRC checked\n",
			st.Seqs, st.Blocks, st.Bytes, st.Entries)
	}
}

// dumpVlog walks one value-log segment.  The scan decodes (and so
// CRC-checks) every record either way; -verify turns damage into the
// same typed FAILED line the table verifier prints, with exit 1.
func dumpVlog(path string, withRecords, verify bool) {
	fmt.Printf("value-log segment %s\n", path)
	var records int
	var keyBytes, valBytes int64
	sc, err := vlog.ScanFile(vfs.NewOSFS(), path, func(key, val []byte, off int64, n int) error {
		records++
		keyBytes += int64(len(key))
		valBytes += int64(len(val))
		if withRecords {
			fmt.Printf("    @%-10d %q = %d bytes\n", off, key, len(val))
		}
		return nil
	})
	if err != nil {
		var ce *corrupt.Error
		if verify && errors.As(err, &ce) {
			fmt.Printf("  verify:     FAILED at offset %d (%s layer)", ce.Offset, ce.Layer)
			if ce.Detail != "" {
				fmt.Printf(": %s", ce.Detail)
			}
			fmt.Println()
			os.Exit(1)
		}
		fatalf("scan: %v", err)
	}
	fmt.Printf("  records:    %d (%d key bytes, %d value bytes)\n", records, keyBytes, valBytes)
	fmt.Printf("  scanned:    %d bytes\n", sc.Valid)
	if verify {
		fmt.Printf("  verify:     OK — %d records, %d bytes, every CRC checked\n", records, sc.Valid)
	}
}

func dumpDB(dir string) {
	st, dropped, err := manifest.Replay(vfs.NewOSFS(), dir+"/MANIFEST")
	if err != nil {
		fatalf("manifest: %v", err)
	}
	fmt.Printf("database %s\n", dir)
	if dropped > 0 {
		fmt.Printf("  torn tail:  %d manifest bytes dropped\n", dropped)
	}
	fmt.Printf("  next file:  %d\n", st.NextFile)
	fmt.Printf("  last seq:   %d\n", st.LastSeq)
	fmt.Printf("  log number: %d\n", st.LogNum)
	fmt.Printf("  levels:     %d\n", st.NumLevels)
	for lvl := 0; lvl < len(st.Levels); lvl++ {
		if len(st.Levels[lvl]) == 0 {
			continue
		}
		fmt.Printf("  L%d: %d nodes\n", lvl, len(st.Levels[lvl]))
		for _, n := range st.Levels[lvl] {
			fmt.Printf("    file %06d  range %q .. %q\n", n.FileNum, n.Lo, n.Hi)
		}
	}
}

func verifyDB(dir string) {
	// Read-only and through the table-set substrate, so every level of
	// any engine's directory is walked and nothing on disk is rewritten.
	set, err := tableset.OpenReadOnly(tableset.Config{FS: vfs.NewOSFS(), Dir: dir})
	if err != nil {
		fatalf("open table set: %v", err)
	}
	defer set.Close()
	rep, err := set.DeepVerify() // the structural invariants first, then scrub's pass over every table
	if err != nil {
		fatalf("FAILED: %v\n(partial: %v)", err, rep)
	}
	for _, q := range set.Quarantined() {
		fmt.Printf("suspect at open: %s: %s\n", q.Path, q.Reason)
	}
	fmt.Printf("OK: %v\n", rep)
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(1)
}
