#include "textflag.h"

// func laneGather(z *laneRow, base *uint64, offs *[laneCount]int64, lanes, limbs int)
TEXT ·laneGather(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ offs+16(FP), AX
	VMOVDQU64 (AX), Z0
	MOVQ lanes+24(FP), CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K2
	MOVQ limbs+32(FP), CX
gather:
	KMOVW K2, K1
	VPGATHERQQ (SI)(Z0*1), K1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ gather
	VZEROUPPER
	RET

// func laneScatter(base *uint64, offs *[laneCount]int64, x *laneRow, lanes, limbs int)
TEXT ·laneScatter(SB), NOSPLIT, $0-40
	MOVQ base+0(FP), DI
	MOVQ offs+8(FP), AX
	MOVQ x+16(FP), SI
	VMOVDQU64 (AX), Z0
	MOVQ lanes+24(FP), CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K2
	MOVQ limbs+32(FP), CX
scatter:
	VMOVDQU64 (SI), Z1
	KMOVW K2, K1
	VPSCATTERQQ Z1, K1, (DI)(Z0*1)
	ADDQ $8, DI
	ADDQ $64, SI
	DECQ CX
	JNZ scatter
	VZEROUPPER
	RET

// func laneLoad(z *laneRow, rows *[laneCount]*uint64, limbs int)
TEXT ·laneLoad(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ rows+8(FP), AX
	VMOVDQU64 (AX), Z0
	MOVQ $0xff, BX
	KMOVW BX, K2
	XORQ SI, SI
	MOVQ limbs+16(FP), CX
load:
	KMOVW K2, K1
	VPGATHERQQ (SI)(Z0*1), K1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ load
	VZEROUPPER
	RET
