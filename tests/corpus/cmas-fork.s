# hifuzz-repro: v1
# name: cmas-fork
# expect: ok
# note: a strided FP load that misses on all 128 iterations, past the
# note: default CMAS thresholds (64 misses, 5% miss rate), so CP+CMP and
# note: HiDISC fork CMAS slices; generated kernels never reach them

.data
buf: .space 8192
out: .space 16
.text
_start:
  la   r4, buf
  la   r6, out
  li   r5, 128
  cvtif f2, r0
loop:
  fld  f1, 0(r4)
  fmul f3, f1, f1
  fadd f2, f2, f3
  addi r4, r4, 64
  addi r5, r5, -1
  bne  r5, r0, loop
  fsd  f2, 0(r6)
  halt
