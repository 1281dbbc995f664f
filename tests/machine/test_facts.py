"""The shared per-machine opcode-facts table."""

import pytest

from repro.machine.facts import LOAD, PREFETCH, STORE, opcode_facts
from repro.machine.isa import Op, OpClass
from repro.machine.machines import A64FX, KUNPENG_920


def test_one_read_only_table_per_machine():
    m = KUNPENG_920
    table = opcode_facts(m.rules, m.lat)
    assert opcode_facts(m.rules, m.lat) is table
    assert opcode_facts(A64FX.rules, A64FX.lat) is not table
    with pytest.raises(TypeError):
        table[Op.NOP, 8] = table[Op.NOP, 4]
    assert len(table) == 2 * len(Op)


def test_facts_follow_the_machine():
    m = KUNPENG_920
    t = opcode_facts(m.rules, m.lat)
    assert t[Op.LDPV, 8].kind == LOAD and t[Op.LDPV, 8].latency == 4
    assert t[Op.STRV, 8].kind == STORE and t[Op.STRV, 8].latency == 1
    assert t[Op.PRFM, 8].kind == PREFETCH and t[Op.PRFM, 8].is_mem
    assert t[Op.FMLA, 4].accumulates and not t[Op.FMUL, 4].accumulates
    assert (t[Op.FMLA, 4].fp_cap, t[Op.FMLA, 8].fp_cap) == (2, 1)
    assert t[Op.FDIV, 4].latency == m.lat.fp_div32
    assert t[Op.FDIV, 8].div_block == m.lat.div_block64
    assert t[Op.FDIV, 8].iclass is OpClass.FP_DIV and t[Op.FDIV, 8].is_fp
    assert t[Op.ADDI, 8].is_int and t[Op.ADDI, 8].latency == m.lat.int_alu
    assert t[Op.FMLA, 8].div_block is None
