"""DDR5 bank/rank command rules, observed through a DDRChannel.

The rules live in the sub-channel's issue path; :class:`Bank` and
:class:`Rank` only hold state. Each test drives a channel with a few reads
or writes and checks the bound on request timestamps (``t_mc_issue`` is the
first command a request sent: PRE for a row conflict, ACT for a closed bank,
CAS for a row hit) and on the bank/rank state left behind.
"""

import pytest

from repro.dram.bank import Bank
from repro.dram.controller import DDRChannel
from repro.dram.mapping import DramCoord
from repro.dram.timing import DDR5_4800 as TM
from repro.engine import Simulator
from repro.request import MemRequest, READ, WRITE

#: Closed-bank read: ACT, tRCD, then CAS latency and the burst.
CLOSED_READ = TM.tRCD + TM.tCL + TM.tBURST


def drive(stream, until=None):
    """Run ``(time, bank, row, kind)`` accesses on sub-channel 0, rank 0.

    Returns the simulator, the channel, the requests in stream order and
    rank 0 of sub-channel 0.
    """
    sim = Simulator()
    chan = DDRChannel(sim, "c")
    reqs = []
    for t, bank, row, kind in stream:
        addr = chan.mapping.encode(DramCoord(channel=0, subchannel=0, rank=0,
                                             bank=bank, row=row))
        req = MemRequest(addr, kind)
        reqs.append(req)
        sim.schedule_at(t, chan.enqueue, req)
    sim.run(until)
    return sim, chan, reqs, chan.subs[0].ranks[0]


def cas_time(req):
    """When the request's RD/WR went out, from its data-burst end."""
    lat = TM.tCWL if req.kind == WRITE else TM.tCL
    return req.t_dram_done - TM.tBURST - lat


class TestBank:
    def test_starts_closed(self):
        _, chan, _, _ = drive([], until=0.0)
        assert all(b.open_row is None for s in chan.subs for r in s.ranks
                   for b in r.banks)
        assert Bank().open_row is None
        # A first access pays ACT + CAS, no PRE.
        _, chan, (req,), _ = drive([(0.0, 3, 7, READ)])
        assert req.t_dram_done - req.t_mc_issue == pytest.approx(CLOSED_READ)
        assert chan.stats["num_act"] == 1 and "row_hits" not in chan.stats

    def test_activate_opens_row(self):
        # Stop before the idle close: the row is still open.
        _, _, _, rank = drive([(0.0, 3, 7, READ)], until=20.0)
        assert rank.banks[3].open_row == 7
        # A same-row access hits it; another row does not.
        _, chan, _, _ = drive([(0.0, 3, 7, READ), (10.0, 3, 7, READ)])
        assert chan.stats["row_hits"] == 1
        _, chan, _, _ = drive([(0.0, 3, 7, READ), (10.0, 3, 8, READ)])
        assert "row_hits" not in chan.stats

    def test_activate_sets_trcd_window(self):
        _, _, (req,), rank = drive([(0.0, 3, 7, READ)], until=20.0)
        act = req.t_mc_issue
        assert rank.banks[3].next_rd == pytest.approx(act + TM.tRCD)
        assert rank.banks[3].next_wr == pytest.approx(act + TM.tRCD)
        assert cas_time(req) == pytest.approx(act + TM.tRCD)

    def test_tras_gates_precharge(self):
        _, _, (first, conflict), _ = drive([(0.0, 3, 7, READ),
                                            (1.0, 3, 8, READ)])
        # The conflict's first command is the PRE closing row 7.
        assert conflict.t_mc_issue >= first.t_mc_issue + TM.tRAS

    def test_precharge_closes_row(self):
        # The idle close precharges the bank once the timeout expires.
        _, chan, _, rank = drive([(0.0, 3, 7, READ)])
        assert rank.banks[3].open_row is None
        assert chan.stats["num_pre"] == 1
        # A conflict's ACT waits tRP after its PRE.
        _, _, (_, conflict), _ = drive([(0.0, 3, 7, READ), (1.0, 3, 8, READ)])
        pre = conflict.t_mc_issue
        assert conflict.t_dram_done - pre >= TM.tRP + CLOSED_READ - 1e-9

    def test_read_pushes_rtp(self):
        # A row hit late enough that tRTP, not tRAS, sets the next PRE.
        _, _, (act, hit), rank = drive([(0.0, 3, 7, READ),
                                        (30.0, 3, 7, READ)], until=40.0)
        assert cas_time(hit) + TM.tRTP > act.t_mc_issue + TM.tRAS
        assert rank.banks[3].next_pre == pytest.approx(
            cas_time(hit) + TM.tRTP)

    def test_write_recovery_gates_precharge(self):
        _, _, (req,), rank = drive([(0.0, 3, 7, WRITE)], until=40.0)
        assert rank.banks[3].next_pre == pytest.approx(
            cas_time(req) + TM.tCWL + TM.tBURST + TM.tWR)


class TestRank:
    def test_tfaw_limits_activates(self):
        # Five cold banks at once: the fifth ACT waits for the window.
        _, chan, reqs, _ = drive([(0.0, b, 7, READ) for b in range(5)])
        acts = sorted(r.t_mc_issue for r in reqs)
        assert chan.stats["num_act"] == 5
        assert acts[3] < acts[0] + TM.tFAW
        assert acts[4] >= acts[0] + TM.tFAW - 1e-9

    def test_trrd_spaces_activates(self):
        _, _, reqs, rank = drive([(100.0, b, 7, READ) for b in range(3)])
        acts = sorted(r.t_mc_issue for r in reqs)
        assert acts[0] == 100.0
        for a, b in zip(acts, acts[1:]):
            assert b >= a + TM.tRRD_S - 1e-9
        assert rank.next_act_any == pytest.approx(acts[-1] + TM.tRRD_S)

    def test_refresh_blackout_blocks_commands(self):
        # A command landing inside the first refresh window gets pushed out.
        _, _, (req,), rank = drive([(TM.tREFI + 1.0, 3, 7, READ)])
        assert req.t_mc_issue >= TM.tREFI + TM.tRFC
        assert rank.refreshes_done >= 1

    def test_refresh_period_advances(self):
        _, _, _, rank = drive([(10 * TM.tREFI + 1.0, 3, 7, READ)])
        assert rank.refreshes_done >= 10
        assert rank.next_refresh == pytest.approx(11 * TM.tREFI)

    def test_command_before_refresh_unaffected(self):
        _, _, (req,), rank = drive([(100.0, 3, 7, READ)])
        assert req.t_mc_issue == 100.0
        assert rank.refreshes_done == 0
