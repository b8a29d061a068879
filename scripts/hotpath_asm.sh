#!/usr/bin/env bash
# Print a hash of the machine code of the simulator's per-access hot path
# in a built perfbench binary, one line per function:
#
#   scripts/hotpath_asm.sh BINARY
#
# BINARY is perfbench/target/release/graphmem-perfbench of some checkout.
# The functions are System::access_probed_hot and access_gather_rmw (os),
# MemorySystem::access_slow and charge_page_hits (vm), and the vm
# functions they call out of line on every probe, fill or walk:
# CacheHierarchy::access, SetAssocTlb::lookup and insert, and
# PageTable::walk_path. Everything that depends on where the linker placed
# code or data is stripped before hashing: instruction addresses,
# rip-relative displacements, symbol hashes, LLVM's local-symbol suffixes
# and offsets into anonymous constants. Equal hashes in two builds mean
# equal instruction streams for the whole per-access path, so a change
# elsewhere cannot have changed its speed (glibc's memmove, which the
# LRU shifts call, is outside the binary). Needs binutils (nm, objdump,
# c++filt).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BINARY" >&2
  exit 2
fi
bin=$1

nm "$bin" \
  | awk '$3 ~ /access_slow|charge_page_hits|access_probed_hot|access_gather_rmw|14CacheHierarchy6access17h|11SetAssocTlb6(lookup|insert)17h|9PageTable9walk_path17h/ {print $3}' \
  | while read -r sym; do
    listing=$(objdump -d --no-show-raw-insn --disassemble="$sym" "$bin" \
      | sed -n '/^[0-9a-f]* </,$p' | tail -n +2)
    hash=$(printf '%s\n' "$listing" | sed -E '
        s/^ *[0-9a-f]+:\t//
        s/\b[0-9a-f]{5,} </</g
        s/# [0-9a-f]+ </# </g
        s/-?0x[0-9a-f]+\(%rip\)/RIP/g
        s/17h[0-9a-f]{16}E/E/g
        s/anon\.[0-9a-f]+\.[0-9]+\.llvm\.[0-9]+/anon/g
        s/\.llvm\.[0-9]+//g
        s/<(_DYNAMIC|anon)\+0x[0-9a-f]+>/<\1>/g' \
      | sha256sum | cut -c1-16)
    insns=$(printf '%s\n' "$listing" | grep -cE '^ *[0-9a-f]+:')
    printf '%s insns=%s %s\n' "$(c++filt "$sym" | sed 's/::h[0-9a-f]*$//')" "$insns" "$hash"
  done
