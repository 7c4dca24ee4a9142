#include "go_asm.h"
#include "textflag.h"

// The CDF pass kernels (see cdf_amd64.go). Each keeps the four lanes of
// a pass in one YMM register and does, per lane, the IEEE operations of
// the Go pass in the same order, so the results are bit-identical to it.
// Operands are in Go assembler order: sources first, destination last.

// LANES4 declares a 32-byte constant holding v in all four lanes.
#define LANES4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// math.Exp's constants, from $GOROOT/src/math/exp_amd64.s.
LANES4(log2e, $1.4426950408889634073599246810018920)
LANES4(ln2u, $0.69314718055966295651160180568695068359375)
LANES4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
LANES4(overflow, $7.09782712893384e+02)
LANES4(sixteenth, $0.0625)
// The Taylor coefficients 1/8! … 1/3!, then 1/2 and 1.
LANES4(c8, $2.4801587301587301587e-5)
LANES4(c7, $1.9841269841269841270e-4)
LANES4(c6, $1.3888888888888888889e-3)
LANES4(c5, $8.3333333333333333333e-3)
LANES4(c4, $4.1666666666666666667e-2)
LANES4(c3, $1.6666666666666666667e-1)
LANES4(half, $0.5)
LANES4(one, $1.0)
LANES4(two, $2.0)
LANES4(posinf, $0x7FF0000000000000)
LANES4(signbit, $0x8000000000000000)
LANES4(tiny, $0x0010000000000000) // 2^-1022, the smallest normal
// Integer constants for the biased exponent k = e + 0x3FF.
LANES4(bias, $0x3FF)
LANES4(denbias, $0x3FE)
LANES4(kone, $1)
LANES4(kmin, $-52)
LANES4(kmax, $0x7FE)

// func expRows(exps [][lanes]float64, rates []float64, xs *[lanes]float64)
//
// Row k, lane l gets math.Exp(-rates[k] * xs[l]) as archExp computes it
// on a CPU with FMA: the same reduction, polynomial and scaling, with
// VCVTPD2DQ rounding e as CVTSD2SL does. Lanes take archExp's branches
// by blending: k ≤ 0 is its denormal branch (two scalings, the second
// by 2^-1022; every other lane's second scaling is by 1.0, which is
// exact), k < −52 and −Inf underflow to +0, k ≥ 0x7FF and arguments
// above Overflow return +Inf, and NaN returns the argument itself.
TEXT ·expRows(SB), NOSPLIT, $0-56
	MOVQ exps_base+0(FP), DI
	MOVQ rates_base+24(FP), SI
	MOVQ rates_len+32(FP), CX
	MOVQ xs+48(FP), AX
	VMOVUPD (AX), Y15
	VMOVUPD signbit<>(SB), Y14
	VMOVUPD one<>(SB), Y13
	VMOVUPD two<>(SB), Y12
	TESTQ CX, CX
	JZ expdone

exprow:
	VBROADCASTSD (SI), Y0
	VXORPD Y14, Y0, Y0 // −rate
	VMULPD Y15, Y0, Y0 // a = −rate·x, math.Exp's argument

	// e = round(a·log2(e)); r = (a − e·ln2U − e·ln2L)/16.
	VMULPD log2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	VMOVAPD Y0, Y3
	VFNMADD231PD ln2u<>(SB), Y1, Y3
	VFNMADD231PD ln2l<>(SB), Y1, Y3
	VMULPD sixteenth<>(SB), Y3, Y3

	// Taylor series, then three squarings of (1+r) as r·(r+2).
	VMOVUPD c8<>(SB), Y1
	VFMADD213PD c7<>(SB), Y3, Y1
	VFMADD213PD c6<>(SB), Y3, Y1
	VFMADD213PD c5<>(SB), Y3, Y1
	VFMADD213PD c4<>(SB), Y3, Y1
	VFMADD213PD c3<>(SB), Y3, Y1
	VFMADD213PD half<>(SB), Y3, Y1
	VFMADD213PD Y13, Y3, Y1
	VMULPD Y1, Y3, Y3
	VADDPD Y12, Y3, Y1
	VMULPD Y1, Y3, Y3
	VADDPD Y12, Y3, Y1
	VMULPD Y1, Y3, Y3
	VADDPD Y12, Y3, Y1
	VMULPD Y1, Y3, Y3
	VADDPD Y12, Y3, Y1
	VFMADD213PD Y13, Y1, Y3 // fr = (r+2)·r + 1

	// fr·2^e: k = e + 0x3FF; a lane with k ≤ 0 scales by 2^(k+0x3FE−1023)
	// and then by 2^-1022, every other lane by 2^(k−1023) and then by 1.
	VPMOVSXDQ X2, Y2
	VPADDQ bias<>(SB), Y2, Y2
	VMOVDQU kone<>(SB), Y4
	VPCMPGTQ Y2, Y4, Y4 // k ≤ 0
	VPAND denbias<>(SB), Y4, Y5
	VPADDQ Y5, Y2, Y5
	VPSLLQ $52, Y5, Y5
	VMULPD Y5, Y3, Y3
	VBLENDVPD Y4, tiny<>(SB), Y13, Y5
	VMULPD Y5, Y3, Y3

	// k < −52: +0.
	VMOVDQU kmin<>(SB), Y4
	VPCMPGTQ Y2, Y4, Y4
	VANDNPD Y3, Y4, Y3
	// k ≥ 0x7FF or a > Overflow: +Inf.
	VPCMPGTQ kmax<>(SB), Y2, Y4
	VCMPPD $0x1e, overflow<>(SB), Y0, Y5 // a > Overflow, ordered
	VORPD Y5, Y4, Y4
	VBLENDVPD Y4, posinf<>(SB), Y3, Y3
	// NaN: a.
	VCMPPD $3, Y0, Y0, Y5 // unordered
	VBLENDVPD Y5, Y0, Y3, Y3

	VMOVUPD Y3, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	DECQ CX
	JNZ exprow

expdone:
	VZEROUPPER
	RET

// func walkTerms(f *[lanes]float64, exps [][lanes]float64, terms []term, branches []branch)
//
// For each branch in order: g = 1, then g −= α·exps[rate] for each term
// in stage order (a multiply, then a subtract), then the clamp to [0, 1]
// as clamp01 does it (VMAXPD(0, g) and VMINPD(1, g) keep g when it is
// NaN, and −0), then f += weight·g. Branches go in pairs, their terms
// interleaved while both have some, so that two subtraction chains are
// in flight at once; each branch's own operations keep their order, and
// the pair adds to f first one branch, then the other.
TEXT ·walkTerms(SB), NOSPLIT, $0-80
	MOVQ exps_base+8(FP), SI
	MOVQ terms_base+32(FP), DI
	MOVQ branches_base+56(FP), R8
	MOVQ branches_len+64(FP), R9
	VXORPD Y0, Y0, Y0 // f
	VXORPD Y5, Y5, Y5 // 0
	VMOVUPD one<>(SB), Y6

walkpair:
	CMPQ R9, $2
	JB walkodd
	// Branch a's terms run from AX to BX, branch b's from CX to DX.
	MOVQ branch_lo(R8), AX
	MOVQ branch_hi(R8), BX
	MOVQ (branch__size+branch_lo)(R8), CX
	MOVQ (branch__size+branch_hi)(R8), DX
	IMULQ $term__size, AX
	IMULQ $term__size, BX
	IMULQ $term__size, CX
	IMULQ $term__size, DX
	ADDQ DI, AX
	ADDQ DI, BX
	ADDQ DI, CX
	ADDQ DI, DX
	VMOVAPD Y6, Y1 // g of a
	VMOVAPD Y6, Y3 // g of b
	// R10 = where a's terms stop pairing with b's.
	MOVQ BX, R10
	SUBQ AX, R10
	MOVQ DX, R11
	SUBQ CX, R11
	CMPQ R11, R10
	CMOVQLT R11, R10
	ADDQ AX, R10
	CMPQ AX, R10
	JAE walkresta

walkboth:
	MOVQ term_rate(AX), R11
	SHLQ $5, R11 // a row of exps is [lanes]float64, 32 bytes
	VBROADCASTSD term_alpha(AX), Y2
	VMULPD (SI)(R11*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	MOVQ term_rate(CX), R12
	SHLQ $5, R12
	VBROADCASTSD term_alpha(CX), Y4
	VMULPD (SI)(R12*1), Y4, Y4
	VSUBPD Y4, Y3, Y3
	ADDQ $term__size, AX
	ADDQ $term__size, CX
	CMPQ AX, R10
	JB walkboth

walkresta:
	CMPQ AX, BX
	JAE walkrestb
	MOVQ term_rate(AX), R11
	SHLQ $5, R11
	VBROADCASTSD term_alpha(AX), Y2
	VMULPD (SI)(R11*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	ADDQ $term__size, AX
	JMP walkresta

walkrestb:
	CMPQ CX, DX
	JAE walkpairsum
	MOVQ term_rate(CX), R12
	SHLQ $5, R12
	VBROADCASTSD term_alpha(CX), Y4
	VMULPD (SI)(R12*1), Y4, Y4
	VSUBPD Y4, Y3, Y3
	ADDQ $term__size, CX
	JMP walkrestb

walkpairsum:
	VMAXPD Y1, Y5, Y1
	VMINPD Y1, Y6, Y1
	VBROADCASTSD branch_weight(R8), Y2
	VMULPD Y1, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMAXPD Y3, Y5, Y3
	VMINPD Y3, Y6, Y3
	VBROADCASTSD (branch__size+branch_weight)(R8), Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $(2*branch__size), R8
	SUBQ $2, R9
	JMP walkpair

walkodd:
	// The last branch of an odd count, alone.
	TESTQ R9, R9
	JZ walkdone
	MOVQ branch_lo(R8), AX
	MOVQ branch_hi(R8), BX
	IMULQ $term__size, AX
	IMULQ $term__size, BX
	ADDQ DI, AX
	ADDQ DI, BX
	VMOVAPD Y6, Y1

walkoddterm:
	CMPQ AX, BX
	JAE walkoddsum
	MOVQ term_rate(AX), R11
	SHLQ $5, R11
	VBROADCASTSD term_alpha(AX), Y2
	VMULPD (SI)(R11*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	ADDQ $term__size, AX
	JMP walkoddterm

walkoddsum:
	VMAXPD Y1, Y5, Y1
	VMINPD Y1, Y6, Y1
	VBROADCASTSD branch_weight(R8), Y2
	VMULPD Y1, Y2, Y2
	VADDPD Y2, Y0, Y0

walkdone:
	MOVQ f+0(FP), AX
	VMOVUPD Y0, (AX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
