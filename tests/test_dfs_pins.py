"""Pinned DFS trees: counters, leaves and task prefixes of `_search_raw`.

The signing DFS must keep its tree when its inner loop changes: the same
nodes, prunes and leaves in the same order, and the same task prefixes for
the parallel split.  For every host, net-degree and pruning mode one digest
is pinned: sha256 of the repr of three (counters, items) pairs, namely the
full search, the search under a node budget of 1,000 and the stop_depth=3
prefix list.  The "twins" mode pins the twin-reduced DFS (pair pruning by
learned entries, twins=True) on the hosts that have two vertices with equal
host rows once each ignores the other.  Every pin runs the DFS on the host
as given and without the look-ahead; the iso modes of `search_srsg` walk
it in the host's search order and with the look-ahead, and
`test_sweep_counters_are_pinned` pins the counters of that tree on the six
sweep searches.  To regenerate the table from a trusted checkout, run
`pin_digests()` with that checkout's `src` on the path.
"""

import hashlib
import os

import pytest

from conftest import FIXTURES, SWEEP, brute_square, kmm, sweep_stats
from srsg.core import SignedGraph
from srsg.search import _search_raw
from srsg.sgio import read_graph6_file

TARGETS = (
    "g8", "g9", "gq22", "k333", "k66", "paley13", "s16u", "s1_15u", "s2_12u", "s3_12u",
)
FIXTURE_FILES = ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6")

# admissible entries for (positive, negative, non-adjacent) pairs; admits
# S3_8, S_15 and S_16 among the catalog signings
FILTER = (frozenset({0, 1, 2}), frozenset({0, 1, 2}), frozenset({-2, -1}))
# no filter: learn each class's entry from its first completed pair
LEARN = (None, None, None)
BUDGET = 1000
STOP_DEPTH = 3


def pin_hosts():
    """(label, underlying graph, rhos) for every pinned host, in a fixed order."""
    for fname in FIXTURE_FILES:
        for i, u in enumerate(read_graph6_file(os.path.join(FIXTURES, fname))):
            yield f"{fname}#{i}", u, (0, 2, 4)
    for name in TARGETS:
        (u,) = read_graph6_file(os.path.join(FIXTURES, "targets", name + ".g6"))
        yield name, u, (0, 2, 4)
    yield "K8,8", kmm(8), (4,)


def has_twins(u):
    """Whether two vertices of u have equal host rows once each ignores the other."""
    return any(u.nbr[x] & ~(1 << w) == u.nbr[w] & ~(1 << x) for x in range(u.n) for w in range(x))


def pin_cases():
    """(label, nbr, n, k, allowed, twins): learning (allowed=LEARN) and
    FILTER everywhere, degree pruning alone (allowed=None) on hosts with at
    most 9 vertices, and learning on the twin-reduced tree on hosts with
    twins."""
    for name, u, rhos in pin_hosts():
        r = u.degree(0)
        modes = [("learn", LEARN, False), ("filter", FILTER, False)]
        if u.n <= 9:
            modes.append(("none", None, False))
        if has_twins(u):
            modes.append(("twins", LEARN, True))
        for rho in rhos:
            for mode, allowed, twins in modes:
                yield f"{name}/rho{rho}/{mode}", u.nbr, u.n, (r - rho) // 2, allowed, twins


def _run(nbr, n, k, allowed, twins, budget=None, stop_depth=None):
    counters = [0, 0, 0, 0]
    items = list(_search_raw(nbr, n, k, allowed, budget, counters, (), stop_depth, twins))
    return counters, items


def pin_digests():
    out = {}
    for label, nbr, n, k, allowed, twins in pin_cases():
        runs = [
            _run(nbr, n, k, allowed, twins),
            _run(nbr, n, k, allowed, twins, budget=BUDGET),
            _run(nbr, n, k, allowed, twins, stop_depth=STOP_DEPTH),
        ]
        out[label] = hashlib.sha256(repr(runs).encode()).hexdigest()
    return out


PINS = {
    "6reg_order8.g6#0/rho0/learn": "b2d4df98f686c177797ee6059a85e955c8fdf0affd7175baccdaf391002b2cf2",
    "6reg_order8.g6#0/rho0/filter": "028fa1b74815965b4974832803257dad836d3e2ffe9ac24d9a866fd1ffc55377",
    "6reg_order8.g6#0/rho0/none": "07fed66a329e050ef4ba2ca43e660e2f1e051ac643b72b26822c149ce0a3e2f8",
    "6reg_order8.g6#0/rho0/twins": "aaaa31126e309fff560632edd0df58bd32702a1be0feb4a2011b9d55b7dfd0d5",
    "6reg_order8.g6#0/rho2/learn": "bff9739be467f1219f72abf53bb9d8485f2c59f47d4b5a877203944e3beb61cc",
    "6reg_order8.g6#0/rho2/filter": "e3b42300e4390441efb16a02f43ae329fab849b4afe4c5676281619fa64f913d",
    "6reg_order8.g6#0/rho2/none": "29dd0deb7c7c31ecf7e3fd6781ac3e436caae51835f2ef2d94f20e0e2701f5dd",
    "6reg_order8.g6#0/rho2/twins": "913b6f8525bac09428918a5092dfedee44f1bf0effb4cdc47ca6c3dda5e36be2",
    "6reg_order8.g6#0/rho4/learn": "c3a20011321a49ce3dde4efe80f1a659dc52922a36cc5cc2d8e745966fbf44c3",
    "6reg_order8.g6#0/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order8.g6#0/rho4/none": "3a7e13af499e92d61ff8dd028528b947628b7f90850f936609672b193d10205a",
    "6reg_order8.g6#0/rho4/twins": "85f85d6cc1ca82822d793a899142c9515b99e535eedd8b80814ab52600565024",
    "6reg_order9.g6#0/rho0/learn": "8ce11fa81c68f5f65aa8fc384da27e9b595a671190aa96c8eebf1f8d05deae66",
    "6reg_order9.g6#0/rho0/filter": "3f70aa30f39f65c8a8db8b6fb3501aa48dda4b5e0be5828ab10308da3da04335",
    "6reg_order9.g6#0/rho0/none": "d751fbf3ef45b74af20b7b4061866d4a46d054b94f965a6542b91dfa696fdcac",
    "6reg_order9.g6#0/rho0/twins": "a308a855bd5a949989d20eb793a82973d06df41cc31ccf46d0ac302bedce16cd",
    "6reg_order9.g6#0/rho2/learn": "be705ff74d021d8b3c43e40deca6f4e712eb4021e2a3a558e02a412744411402",
    "6reg_order9.g6#0/rho2/filter": "b2d966cf058b39f056591cbef68206bef6ee42c83556ae2745ceed09a40655b0",
    "6reg_order9.g6#0/rho2/none": "4ae991aedb6b1c1adddb67f09abb8e593bf4a1980e072056eb7a877ad6ef86e1",
    "6reg_order9.g6#0/rho2/twins": "35a32e1da056f9309d9dcb46ce8b27697fddf7556f7b43161c869006ab82908d",
    "6reg_order9.g6#0/rho4/learn": "dbe4624c6b333b849edcbfd0e209da2d191293c9fc3ffed7e2deebb0dc2177a5",
    "6reg_order9.g6#0/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order9.g6#0/rho4/none": "56bb06ff692e08cc55d4780ea77243d3f4af7d415bef0f6bc8945237ac615bed",
    "6reg_order9.g6#0/rho4/twins": "d68a8fb49cedef50e19ded49bb03edeeb9a9e6d3bf87ea638be3368191d9732b",
    "6reg_order9.g6#1/rho0/learn": "7c8f10fee3b6323ffe06b41e08023e3fd58e9b0f01a96dd5dcbdd9f872e3ebd3",
    "6reg_order9.g6#1/rho0/filter": "916fd0686718b3330accc9664de4c15dd8cb463fb374b21da0cf2e4ee7680a2c",
    "6reg_order9.g6#1/rho0/none": "20d9148a360502b6a3a14948c78285e13e10317b3fc3d903e8d656cfe399af98",
    "6reg_order9.g6#1/rho0/twins": "7c8f10fee3b6323ffe06b41e08023e3fd58e9b0f01a96dd5dcbdd9f872e3ebd3",
    "6reg_order9.g6#1/rho2/learn": "39b310e38adb004f633e0ee0224c4b0a43d2ccad1fc67384abc1e87bc27bca7e",
    "6reg_order9.g6#1/rho2/filter": "b2d966cf058b39f056591cbef68206bef6ee42c83556ae2745ceed09a40655b0",
    "6reg_order9.g6#1/rho2/none": "dcc0cd608f72528378289c7fd174512af87680f53517dc33026e774b3fd20f04",
    "6reg_order9.g6#1/rho2/twins": "39b310e38adb004f633e0ee0224c4b0a43d2ccad1fc67384abc1e87bc27bca7e",
    "6reg_order9.g6#1/rho4/learn": "cb3e7c7caed701e04720790a6990ab63311e2afb8faf5d756456b7d48c5ce5ca",
    "6reg_order9.g6#1/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order9.g6#1/rho4/none": "bcece28effb253d311c9524d365f9a044fb19d4483f3a46c199addd48e95d2f3",
    "6reg_order9.g6#1/rho4/twins": "cb3e7c7caed701e04720790a6990ab63311e2afb8faf5d756456b7d48c5ce5ca",
    "6reg_order9.g6#2/rho0/learn": "8b7c4fe0d8a096bfda7d2978239391cb51e894a1154dc486d1b136e2c4687ea3",
    "6reg_order9.g6#2/rho0/filter": "1a466dfa8220222f3bef84a93c5899c65837ceac019bdb3dbd0ba2840ff7d1d5",
    "6reg_order9.g6#2/rho0/none": "bc2dcd4ea1c7cbf945fc9e62a38cd53669eb2894693dc88e5b53fe03107e8620",
    "6reg_order9.g6#2/rho0/twins": "8b7c4fe0d8a096bfda7d2978239391cb51e894a1154dc486d1b136e2c4687ea3",
    "6reg_order9.g6#2/rho2/learn": "507f5a9c859d78887263f8a7e1e62188c1708fb5de14ffba7e8bff15ee5d1c4c",
    "6reg_order9.g6#2/rho2/filter": "50908c7cf25ba8c5ebc0e083658704a0ff7ddcda9663bb7d5f5783f21933f747",
    "6reg_order9.g6#2/rho2/none": "c49ff09ddcb945768603b5754b572bf893104d7833acc5f6a36ef4f533115a69",
    "6reg_order9.g6#2/rho2/twins": "507f5a9c859d78887263f8a7e1e62188c1708fb5de14ffba7e8bff15ee5d1c4c",
    "6reg_order9.g6#2/rho4/learn": "5df1def05196f05ee33d8c5c7cdd4c1b2e8e4a235b1f01429b1436d3e1f0b6cf",
    "6reg_order9.g6#2/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order9.g6#2/rho4/none": "d4eb5c119f5e79a0307ca293165501eebc58f635dbca875d6667b47581cec9be",
    "6reg_order9.g6#2/rho4/twins": "5df1def05196f05ee33d8c5c7cdd4c1b2e8e4a235b1f01429b1436d3e1f0b6cf",
    "6reg_order9.g6#3/rho0/learn": "ff6b7644404a62841749727d70c7894e7089158e47499137a83bf5a206bbc545",
    "6reg_order9.g6#3/rho0/filter": "a7a87294af1dc908b57be9137bded7ea80e60009a9476cf853f3883d0757b5c4",
    "6reg_order9.g6#3/rho0/none": "3ce0c683a9ea165aa8e4581f8f9ee0444b48723c21d391f497e8d966560e6fcc",
    "6reg_order9.g6#3/rho2/learn": "cb0d675e0052ef4f34cb0deba881ef3c0b73529944d26bd2f4452225a9a3b397",
    "6reg_order9.g6#3/rho2/filter": "390576e65a1307e389e2e6a8d3fc020b4910e360efc7ef18a17dbcf91d5b342d",
    "6reg_order9.g6#3/rho2/none": "f8ebccdd7bdee72a15cc6a04b0502f70bb976197051f6f7ed014c666875bd644",
    "6reg_order9.g6#3/rho4/learn": "a48364b032565569a2efb6524560b983724ed9b5ae6be80a4f6163d0f9c09924",
    "6reg_order9.g6#3/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order9.g6#3/rho4/none": "ddbaa5117a80c76e8a36b920f7a1d4f70b59cf1cb13d18d3055d3f999a91b67a",
    "6reg_order10.g6#0/rho0/learn": "9f002c1eabcfcff782ed11761eaa4f6bf41b7951538389cc56137e0e3772a8c9",
    "6reg_order10.g6#0/rho0/filter": "c78357d1f02b500444c2d81fe7e7bee0ffb5c498f4a0dac2fecdb52294184f91",
    "6reg_order10.g6#0/rho0/twins": "9f002c1eabcfcff782ed11761eaa4f6bf41b7951538389cc56137e0e3772a8c9",
    "6reg_order10.g6#0/rho2/learn": "54eebfd5fede01d6e575809ad1bb490753c07220640c19bbf0c95d5c0c59ff72",
    "6reg_order10.g6#0/rho2/filter": "4c7947f14e140cbca9286b774c2758a070be8f1811eae530c876398e5449087b",
    "6reg_order10.g6#0/rho2/twins": "54eebfd5fede01d6e575809ad1bb490753c07220640c19bbf0c95d5c0c59ff72",
    "6reg_order10.g6#0/rho4/learn": "d0c0172d757b98f314c470bc43802d08de72fdf4d8e286860e2bd76c6a9d15c1",
    "6reg_order10.g6#0/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#0/rho4/twins": "d0c0172d757b98f314c470bc43802d08de72fdf4d8e286860e2bd76c6a9d15c1",
    "6reg_order10.g6#1/rho0/learn": "9f002c1eabcfcff782ed11761eaa4f6bf41b7951538389cc56137e0e3772a8c9",
    "6reg_order10.g6#1/rho0/filter": "c78357d1f02b500444c2d81fe7e7bee0ffb5c498f4a0dac2fecdb52294184f91",
    "6reg_order10.g6#1/rho0/twins": "819386a84e62b694321fb80510091241dd29ca3e64216a946c43aba15e7a90ee",
    "6reg_order10.g6#1/rho2/learn": "54eebfd5fede01d6e575809ad1bb490753c07220640c19bbf0c95d5c0c59ff72",
    "6reg_order10.g6#1/rho2/filter": "4c7947f14e140cbca9286b774c2758a070be8f1811eae530c876398e5449087b",
    "6reg_order10.g6#1/rho2/twins": "32c55e46436b59e71384f1a4329d6099c2324dc3bd4aae8e99c28afedeaa3f8f",
    "6reg_order10.g6#1/rho4/learn": "5e8dd54ad12d5fc5f1a4a0ebe6e839c2e708564a4bff5ac8ff70a667a6825927",
    "6reg_order10.g6#1/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#1/rho4/twins": "80c22b41de94a377ea9fd63a12f7cd9b7854b5ee1e40284b46689e5bf153e138",
    "6reg_order10.g6#2/rho0/learn": "0fd23e391e7851f46bd51facb8e3bfaec019301aad80b454d193d417fb7ed1e1",
    "6reg_order10.g6#2/rho0/filter": "b5cbadf907a1319b884c4108656c69a439c9da62eb94451211cd524f4c834737",
    "6reg_order10.g6#2/rho0/twins": "0fd23e391e7851f46bd51facb8e3bfaec019301aad80b454d193d417fb7ed1e1",
    "6reg_order10.g6#2/rho2/learn": "ee29f2c744480dfd9a2a60e9a2b171e93c383577c61019d832af70ed1d832b93",
    "6reg_order10.g6#2/rho2/filter": "879e740428ed63da28621a0fa919b8d44048bfbac21d1aa91e284d2fc6f8e563",
    "6reg_order10.g6#2/rho2/twins": "ee29f2c744480dfd9a2a60e9a2b171e93c383577c61019d832af70ed1d832b93",
    "6reg_order10.g6#2/rho4/learn": "f9f1619157d03ff52c0f1ea4b05096c0ca2a920f7ddba7dfdc49a8bd04e5f8bb",
    "6reg_order10.g6#2/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#2/rho4/twins": "f9f1619157d03ff52c0f1ea4b05096c0ca2a920f7ddba7dfdc49a8bd04e5f8bb",
    "6reg_order10.g6#3/rho0/learn": "0fd23e391e7851f46bd51facb8e3bfaec019301aad80b454d193d417fb7ed1e1",
    "6reg_order10.g6#3/rho0/filter": "b5cbadf907a1319b884c4108656c69a439c9da62eb94451211cd524f4c834737",
    "6reg_order10.g6#3/rho0/twins": "ffc79a13583a271e47e3bf621fab9d6b3e61d07240c7fb1aa2c6491be9f8537d",
    "6reg_order10.g6#3/rho2/learn": "ee29f2c744480dfd9a2a60e9a2b171e93c383577c61019d832af70ed1d832b93",
    "6reg_order10.g6#3/rho2/filter": "879e740428ed63da28621a0fa919b8d44048bfbac21d1aa91e284d2fc6f8e563",
    "6reg_order10.g6#3/rho2/twins": "3cac567af3cc156d390a78212fe59d314813cd0b90ceea91961066646b43dc9b",
    "6reg_order10.g6#3/rho4/learn": "f9f1619157d03ff52c0f1ea4b05096c0ca2a920f7ddba7dfdc49a8bd04e5f8bb",
    "6reg_order10.g6#3/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#3/rho4/twins": "bbe8eb414aaf2b1795597318071565a0b57aaae5a2d568b01318a3e083f0ed68",
    "6reg_order10.g6#4/rho0/learn": "0fd23e391e7851f46bd51facb8e3bfaec019301aad80b454d193d417fb7ed1e1",
    "6reg_order10.g6#4/rho0/filter": "b5cbadf907a1319b884c4108656c69a439c9da62eb94451211cd524f4c834737",
    "6reg_order10.g6#4/rho0/twins": "0fd23e391e7851f46bd51facb8e3bfaec019301aad80b454d193d417fb7ed1e1",
    "6reg_order10.g6#4/rho2/learn": "d5bfe6313ff3d62f7614991cb05404e69f1085562d7ea65936fb9d160c6dbdf6",
    "6reg_order10.g6#4/rho2/filter": "879e740428ed63da28621a0fa919b8d44048bfbac21d1aa91e284d2fc6f8e563",
    "6reg_order10.g6#4/rho2/twins": "d5bfe6313ff3d62f7614991cb05404e69f1085562d7ea65936fb9d160c6dbdf6",
    "6reg_order10.g6#4/rho4/learn": "f9f1619157d03ff52c0f1ea4b05096c0ca2a920f7ddba7dfdc49a8bd04e5f8bb",
    "6reg_order10.g6#4/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#4/rho4/twins": "f9f1619157d03ff52c0f1ea4b05096c0ca2a920f7ddba7dfdc49a8bd04e5f8bb",
    "6reg_order10.g6#5/rho0/learn": "10e8a65b084032778f345f23647bca007e590df7c987d818e0d18e715dcb35b2",
    "6reg_order10.g6#5/rho0/filter": "d1d22323b2c1baec48318fa2961626fff7c3d56984fb48d5529863fe3fb4fc58",
    "6reg_order10.g6#5/rho0/twins": "d232f9658c83c80f503cb75e9c582593217afd5becbaf5b32627beae5ae618a2",
    "6reg_order10.g6#5/rho2/learn": "43742ab23fa22438076e01a53424078ac2cb9423a295f851de22f4ec5125e789",
    "6reg_order10.g6#5/rho2/filter": "170237e93afb0b5a2d3c8670b1ebbf3bacafd21ab00e5e13e7f7a17efa92377d",
    "6reg_order10.g6#5/rho2/twins": "7ecb2ab3ef0e5d610c15be28a49b4f996c89ee003484e72b3f8027e77e87b493",
    "6reg_order10.g6#5/rho4/learn": "e57132d9f27d04d9aa789336934de98242d68e06d1385e1ede7002fc3282a19d",
    "6reg_order10.g6#5/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order10.g6#5/rho4/twins": "842b6d85c40aa2976e4816c709c7d00571595e001263da12fa6aa2875df99df3",
    "6reg_order10.g6#6/rho0/learn": "71763ca0f690c6ae5ecae107882748af1d2ca29099c1d2e3fd2439cf4df073fe",
    "6reg_order10.g6#6/rho0/filter": "4d738a0c2f9a044cd2bfa106b34ffeb06be3c9f5065a09f8bd156b0740a1bf90",
    "6reg_order10.g6#6/rho2/learn": "ffddb64fe69f96eba2dde92830769003b81927e66e918871938060a963c37e26",
    "6reg_order10.g6#6/rho2/filter": "170237e93afb0b5a2d3c8670b1ebbf3bacafd21ab00e5e13e7f7a17efa92377d",
    "6reg_order10.g6#6/rho4/learn": "1361737b8a67e51954150695f351761e037bb9a3182d9cc11680baa214c3f366",
    "6reg_order10.g6#6/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order10.g6#7/rho0/learn": "71763ca0f690c6ae5ecae107882748af1d2ca29099c1d2e3fd2439cf4df073fe",
    "6reg_order10.g6#7/rho0/filter": "4d738a0c2f9a044cd2bfa106b34ffeb06be3c9f5065a09f8bd156b0740a1bf90",
    "6reg_order10.g6#7/rho2/learn": "ffddb64fe69f96eba2dde92830769003b81927e66e918871938060a963c37e26",
    "6reg_order10.g6#7/rho2/filter": "170237e93afb0b5a2d3c8670b1ebbf3bacafd21ab00e5e13e7f7a17efa92377d",
    "6reg_order10.g6#7/rho4/learn": "1361737b8a67e51954150695f351761e037bb9a3182d9cc11680baa214c3f366",
    "6reg_order10.g6#7/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order10.g6#8/rho0/learn": "9af5ccd4a5449d4863f4e0b3f3e1f3598b041aa6089eeefaca14579f3296795c",
    "6reg_order10.g6#8/rho0/filter": "06a37df9a8860863788d2bf1c59891a41418e57dd14135a1841cee1678718c35",
    "6reg_order10.g6#8/rho2/learn": "2e31aba23355d2bf96a66968de48e0ab6b37e2036454ae727c8f7002b474fcd4",
    "6reg_order10.g6#8/rho2/filter": "b97af983c7991d6e55ed6ea958036d64c6c76e1785cc17673e7d96f03afe1b0b",
    "6reg_order10.g6#8/rho4/learn": "bbe8e253e07d9a0c595e2217a522f1efd469b80eed209c5fc99db1790b0d0557",
    "6reg_order10.g6#8/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order10.g6#9/rho0/learn": "23d81bff578de95b580b283e81753b6032e58039db1af4720cf79ef9565483b6",
    "6reg_order10.g6#9/rho0/filter": "e69351e35d28015cca87b78b04d4d6e0820b25be6d6a920ce45856d7b6f4c38f",
    "6reg_order10.g6#9/rho2/learn": "73d24a839105fcbde0575a4469bd0286456a43018c499402de4f6020163beb23",
    "6reg_order10.g6#9/rho2/filter": "2dd47ab9aa4f3e8c8e1e445831f4defbaf4cb9922f1f1feefff566cb84153cf4",
    "6reg_order10.g6#9/rho4/learn": "53253802ffce2eaf247dd388be8497440026e66b9733aff3e32a60964da289de",
    "6reg_order10.g6#9/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#10/rho0/learn": "23d81bff578de95b580b283e81753b6032e58039db1af4720cf79ef9565483b6",
    "6reg_order10.g6#10/rho0/filter": "e69351e35d28015cca87b78b04d4d6e0820b25be6d6a920ce45856d7b6f4c38f",
    "6reg_order10.g6#10/rho2/learn": "73d24a839105fcbde0575a4469bd0286456a43018c499402de4f6020163beb23",
    "6reg_order10.g6#10/rho2/filter": "2dd47ab9aa4f3e8c8e1e445831f4defbaf4cb9922f1f1feefff566cb84153cf4",
    "6reg_order10.g6#10/rho4/learn": "53253802ffce2eaf247dd388be8497440026e66b9733aff3e32a60964da289de",
    "6reg_order10.g6#10/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#11/rho0/learn": "47611a505c20e76611876e43cdda178c062fa8d51a3f40737330cea52b331f47",
    "6reg_order10.g6#11/rho0/filter": "1d15b46e786ab7ea8a703a3d8d12339382eb9290de793e83ae5178fec0f343e2",
    "6reg_order10.g6#11/rho0/twins": "0d813d53fe01cfa3c883d1acdbd8a28cef4a40978fcd429e7822bc442863912b",
    "6reg_order10.g6#11/rho2/learn": "78b644c7146971e648cea5a13923a99deb8c0ff52f873aeb57d849818a099eb7",
    "6reg_order10.g6#11/rho2/filter": "5fe8ff5c42861b6981e8b3b8ea6889861201af82ae3acb10548957eddc0b687b",
    "6reg_order10.g6#11/rho2/twins": "62f9b19c878b8c55a049f3eccbb2f9758629dd0397449fa94d3ed052624d0d25",
    "6reg_order10.g6#11/rho4/learn": "3b593c98b99c7b1a5192a54a7508cead25ef64814e00d60598792cb67cbbd704",
    "6reg_order10.g6#11/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#11/rho4/twins": "879165075547af3d5063089b7ebeb0bccf2f97500c87cc07125559c048cd6d0d",
    "6reg_order10.g6#12/rho0/learn": "c10a92925db451d6f18603408ec3b8e61ffb078fd6071bca33e8d797226c04d3",
    "6reg_order10.g6#12/rho0/filter": "3050a88a5d110e5b91c2649243d86ff12f57419b30d1a43f46d9e06ed84f50aa",
    "6reg_order10.g6#12/rho2/learn": "aef0d1ba3f71f651faf072e788dcb665cf7247c5eee23cf48c571089caaed289",
    "6reg_order10.g6#12/rho2/filter": "b176749aab90ce632221644ec49f632485b4c3f86e463f70456aed21a4c0e975",
    "6reg_order10.g6#12/rho4/learn": "cad0649c6ae6a87d53514262ab2e76bca0b289429345517d4de81a8738af9911",
    "6reg_order10.g6#12/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#13/rho0/learn": "c10a92925db451d6f18603408ec3b8e61ffb078fd6071bca33e8d797226c04d3",
    "6reg_order10.g6#13/rho0/filter": "3050a88a5d110e5b91c2649243d86ff12f57419b30d1a43f46d9e06ed84f50aa",
    "6reg_order10.g6#13/rho2/learn": "aef0d1ba3f71f651faf072e788dcb665cf7247c5eee23cf48c571089caaed289",
    "6reg_order10.g6#13/rho2/filter": "b176749aab90ce632221644ec49f632485b4c3f86e463f70456aed21a4c0e975",
    "6reg_order10.g6#13/rho4/learn": "cad0649c6ae6a87d53514262ab2e76bca0b289429345517d4de81a8738af9911",
    "6reg_order10.g6#13/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#14/rho0/learn": "c10a92925db451d6f18603408ec3b8e61ffb078fd6071bca33e8d797226c04d3",
    "6reg_order10.g6#14/rho0/filter": "3050a88a5d110e5b91c2649243d86ff12f57419b30d1a43f46d9e06ed84f50aa",
    "6reg_order10.g6#14/rho2/learn": "aef0d1ba3f71f651faf072e788dcb665cf7247c5eee23cf48c571089caaed289",
    "6reg_order10.g6#14/rho2/filter": "b176749aab90ce632221644ec49f632485b4c3f86e463f70456aed21a4c0e975",
    "6reg_order10.g6#14/rho4/learn": "cad0649c6ae6a87d53514262ab2e76bca0b289429345517d4de81a8738af9911",
    "6reg_order10.g6#14/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#15/rho0/learn": "5cb63b479126652cc0ee49b2bffb7772dc5cb9d6486b9e9aba7bc3dfa51004f9",
    "6reg_order10.g6#15/rho0/filter": "6d6e1b81b51f653ea485a4b0ef6e84280633e1dda73e678dd95b9e2cc97bba54",
    "6reg_order10.g6#15/rho2/learn": "cb45580334e4dc6f1b0ffe5c846b9638afcc4cad7c9c5aa4d71c6dc6f7a4699f",
    "6reg_order10.g6#15/rho2/filter": "fff207942e1bdc52bd0507b50f428404cc3bd94ffeaf192a092c8f38c21a6009",
    "6reg_order10.g6#15/rho4/learn": "61a4a7c91326ca502e9bdab0b4f7c02c5673f613172a8c471c5747b0f1592bb2",
    "6reg_order10.g6#15/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#16/rho0/learn": "2caa21283c9a2a9179b37492d8e0343243e298b393dac5da093b6779deb774ff",
    "6reg_order10.g6#16/rho0/filter": "5c144bcd6b4bfb7be1f211016e081bbed36e9140a82c0fd0fcec02116d168bdd",
    "6reg_order10.g6#16/rho2/learn": "1ee209e715726286191dd3b7c6058993c6463680e50bc835f4ec2b5e860afb13",
    "6reg_order10.g6#16/rho2/filter": "8c3ca85f206006bb5dc71c4b658456b641f2b2e755de069c05fad959b49bb197",
    "6reg_order10.g6#16/rho4/learn": "81a2dd5b6b9cd15ccfc9216cc88899d1e0e3529ebb2c9d761d42306d2431ff70",
    "6reg_order10.g6#16/rho4/filter": "ca95650844d43f53b3883c18d1117b6e8d2f4173357e44bcb8b0eb476d27d9d3",
    "6reg_order10.g6#17/rho0/learn": "23d81bff578de95b580b283e81753b6032e58039db1af4720cf79ef9565483b6",
    "6reg_order10.g6#17/rho0/filter": "08e6bc34f2c9fafba7012d9f089d8a777e40ab3ce571d86342599ed0d492bd13",
    "6reg_order10.g6#17/rho2/learn": "73d24a839105fcbde0575a4469bd0286456a43018c499402de4f6020163beb23",
    "6reg_order10.g6#17/rho2/filter": "eb609e7328fb48f8ff0cafce40bf0df8d1312c38c2783f4404738d406501c8cd",
    "6reg_order10.g6#17/rho4/learn": "a6942346234e5dad0fab52feed3a424a216c365344c974e8a917c71509b3e2ac",
    "6reg_order10.g6#17/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "6reg_order10.g6#18/rho0/learn": "3052c76da4d63ff08a0416daf7b6ee935736ff82042704ef6e74f84d09d6387d",
    "6reg_order10.g6#18/rho0/filter": "d22c73825a8bdb0caef3affd782e4aaef2d696dcf1892245b7158667a13b3978",
    "6reg_order10.g6#18/rho0/twins": "6fdfdd52d4ef04bb4950fac478361a09bb42d84e319fc409bc35307e7b48831d",
    "6reg_order10.g6#18/rho2/learn": "179d13558ef4c040b85363e62d87fea9dc6943f96e4734c7c4fbf6c3d1a440f9",
    "6reg_order10.g6#18/rho2/filter": "583721922d56ad9449c995e9e4e8935df39fd33c076536ffa4eb0a92093a3e36",
    "6reg_order10.g6#18/rho2/twins": "f0dc155a1c76ff0a13a2069a7da6311616f841d6eb5e9f17a65e3b3b03a74d8e",
    "6reg_order10.g6#18/rho4/learn": "408ba42a3b5f79c40894d9d507a597877da6c9b387dcae160435284873203351",
    "6reg_order10.g6#18/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#18/rho4/twins": "8797d4f27c73aa9466b7411901cbddcfb67658aabb4f752cb248b3e1fdf5262b",
    "6reg_order10.g6#19/rho0/learn": "3052c76da4d63ff08a0416daf7b6ee935736ff82042704ef6e74f84d09d6387d",
    "6reg_order10.g6#19/rho0/filter": "d22c73825a8bdb0caef3affd782e4aaef2d696dcf1892245b7158667a13b3978",
    "6reg_order10.g6#19/rho0/twins": "3c98daa5961249dbf1106c33b7e9143840ae3bf4f882c25254febe9671548898",
    "6reg_order10.g6#19/rho2/learn": "179d13558ef4c040b85363e62d87fea9dc6943f96e4734c7c4fbf6c3d1a440f9",
    "6reg_order10.g6#19/rho2/filter": "583721922d56ad9449c995e9e4e8935df39fd33c076536ffa4eb0a92093a3e36",
    "6reg_order10.g6#19/rho2/twins": "534acfe7d3aa40c2eb240a46b5d36b3872d7cf673da5d1bc0c29ea458c5fe54e",
    "6reg_order10.g6#19/rho4/learn": "408ba42a3b5f79c40894d9d507a597877da6c9b387dcae160435284873203351",
    "6reg_order10.g6#19/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "6reg_order10.g6#19/rho4/twins": "90ae9b4c8e8e437d05c196935082b939f466eb7958d8bc798b70657428a26d34",
    "6reg_order10.g6#20/rho0/learn": "e80d9ad6d6c0c57a2ea6570750c67b8412f5df655445aa942c0c29e4c7d21c3a",
    "6reg_order10.g6#20/rho0/filter": "712c4e753a0cdea07c31a4e35b57c1c192e864aaa2ec162d17a8c50ed35c01a8",
    "6reg_order10.g6#20/rho2/learn": "0173c4b40920753cafd2d78df946bc01c230d7529836bdfbdeafc22b208670bf",
    "6reg_order10.g6#20/rho2/filter": "36ccaa055b965d63a93e1ef568fc2a8721ef5e19484f30e9a191408bb6eb6494",
    "6reg_order10.g6#20/rho4/learn": "31a6ddb0e38b0f31e00022dd238dd10beaf5a92152e202bf227dab932f19406b",
    "6reg_order10.g6#20/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "g8/rho0/learn": "8aba302db48ce4060c29b4feb578b7f0238396060f27fd6d06c2a56ce7a52ebf",
    "g8/rho0/filter": "34975b832b78719abc88aa284a546626eaa0f9801f2d6386b9b4c4217e7508a8",
    "g8/rho0/none": "caf0c2f46129de003a625b101cca0b2058b2dae6761f7b8890f521cb1a331d87",
    "g8/rho0/twins": "d09b6dbfd271e06b895e0aed39421c73ce1634e12d1dde9c88372d5451ec6755",
    "g8/rho2/learn": "4267593758f00e4a579fc84b3de4f8bb42e4ecdfec36e7596402d2c7262102d8",
    "g8/rho2/filter": "d2716a61c5605174202cd6a226cf5daf8ee9f535f7b005b2580bc28f243964c2",
    "g8/rho2/none": "64df487ed7162de65d794c7c608510822f3387a1895ea04ee9633f95e8532dce",
    "g8/rho2/twins": "59c902bbb6d5880996b7dd56ec8408779b7c9e41311c7928de0d3fa83befd4f8",
    "g8/rho4/learn": "79cdde8d8876cf1e485ec7f89749c5c8cd676d9563d763b076b9b70dfc5de612",
    "g8/rho4/filter": "25ace95aedf3bd8ab38befc58e13a430946fc2f3d1461c9ad543382cc609c6e5",
    "g8/rho4/none": "5159f7a9e16f8880ef6ca184083c3d467c415951c71681feeeb04a1d6ff7f26e",
    "g8/rho4/twins": "7d95d065488bce1a2137a6840e272026cadf735c65336314a2b0d15754b2054d",
    "g9/rho0/learn": "69d1b5ca28a844e05ac28917ae3be64baf339b17ffb7f53c61bd9e0d82dee919",
    "g9/rho0/filter": "8e3104f04f2b79234e15587723d4e15e86274e1f72518557665d15bddbc330cd",
    "g9/rho0/none": "b6742a04b41aba7c3c4332e61f38f356720e76b512a0c40f36db4723b6e1d10c",
    "g9/rho2/learn": "6369b6fa409f9d88dafb388be39f8652b03ee634085c526b1b97f186b52448c0",
    "g9/rho2/filter": "c4b4011ef0d2f1ea7f4038b81405d03fb1355bc0039a3dd01531511d3bc1a951",
    "g9/rho2/none": "6a8adcee3c792c71b1c61e171efe5fa9a0dfe068896561a78f83f87a953f63ef",
    "g9/rho4/learn": "3c4038837d805e4bbac13b7e7fdff3af4bd862796c51419e534494c5de676a56",
    "g9/rho4/filter": "8da21368b3f0a43eceaa4b4437578c25c0e6a81128966c26f72bd54b115b4347",
    "g9/rho4/none": "2b1b9deb660820d7c94a36c0529bbf8e29c1162c87090c0b5896296e4b382884",
    "gq22/rho0/learn": "4e848f8b92645808d9ff17c42ad723849c6ad65250e1b2e3f81145373e8a128a",
    "gq22/rho0/filter": "520f79f0ba7718dc46208244330626b0134aded893eb67f0e9f3c27324729b1d",
    "gq22/rho2/learn": "104af373ac7417e1f7e3024bdb15ac3fe52b6ea17219723bc089785f8f88bd42",
    "gq22/rho2/filter": "188652bd748fee299174f1b7bab548620c80f34b0db1b89fbe167d8595418589",
    "gq22/rho4/learn": "7e6e4f5c187701f4918712a86bd4f0457aa635b91734aeda72fcbd5c2d736f29",
    "gq22/rho4/filter": "8129c0412d536c2f3bcf2cb30b15202d7dd367ac29d48ba4814074effa3283d2",
    "k333/rho0/learn": "8ce11fa81c68f5f65aa8fc384da27e9b595a671190aa96c8eebf1f8d05deae66",
    "k333/rho0/filter": "3f70aa30f39f65c8a8db8b6fb3501aa48dda4b5e0be5828ab10308da3da04335",
    "k333/rho0/none": "d751fbf3ef45b74af20b7b4061866d4a46d054b94f965a6542b91dfa696fdcac",
    "k333/rho0/twins": "a308a855bd5a949989d20eb793a82973d06df41cc31ccf46d0ac302bedce16cd",
    "k333/rho2/learn": "be705ff74d021d8b3c43e40deca6f4e712eb4021e2a3a558e02a412744411402",
    "k333/rho2/filter": "b2d966cf058b39f056591cbef68206bef6ee42c83556ae2745ceed09a40655b0",
    "k333/rho2/none": "4ae991aedb6b1c1adddb67f09abb8e593bf4a1980e072056eb7a877ad6ef86e1",
    "k333/rho2/twins": "35a32e1da056f9309d9dcb46ce8b27697fddf7556f7b43161c869006ab82908d",
    "k333/rho4/learn": "dbe4624c6b333b849edcbfd0e209da2d191293c9fc3ffed7e2deebb0dc2177a5",
    "k333/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "k333/rho4/none": "56bb06ff692e08cc55d4780ea77243d3f4af7d415bef0f6bc8945237ac615bed",
    "k333/rho4/twins": "d68a8fb49cedef50e19ded49bb03edeeb9a9e6d3bf87ea638be3368191d9732b",
    "k66/rho0/learn": "6bc61b2325b6020bfc78c738d0933218f80ea57d7756b2e89e6fcaf3d94874ed",
    "k66/rho0/filter": "967a8872591a1e4778671b7e4240a30d0af6699d3b29b51a253adb85e5ed1d23",
    "k66/rho0/twins": "e0b65253e37fe025cde386b83c20676e4590da50a52dc07b5ab531560bc7a44f",
    "k66/rho2/learn": "dda26687ceea4ef251e6360bc8b0e3ae1b13d688b20b99bc7dfddaeac9795d76",
    "k66/rho2/filter": "c9aee5c7379706dcdef5825ed2c229863ae1b996754328307125fa1bf0d5963e",
    "k66/rho2/twins": "9c0a777425bb75d8414411c5eeddfe32eee747c0a4237106a04cbb3b8408ce7f",
    "k66/rho4/learn": "19e3e5a56564596a569ed928b044583867b00d23987eba969cf9404fb43a43d8",
    "k66/rho4/filter": "e7fdaaccc4fe1d73ce1ab903a1462ea995481bda15bf13c1886b067d40e99dcc",
    "k66/rho4/twins": "ca0859fd2f1041fc1eaa910c099fe2b935022c443345ed648a204d2a16272cbd",
    "paley13/rho0/learn": "955c9a844c15bb7d85c3586efa488905bbc0d6a4cf53276525a0b2deb34998f8",
    "paley13/rho0/filter": "9d6cce8d1097f87853baf522575850587fa2b1f53d326f5403b750c9a53028c7",
    "paley13/rho2/learn": "51582475aaee4498b056012366d9822458017e03389f3c79e90c4f68f7a692bc",
    "paley13/rho2/filter": "abece401fb6e3f4c614bf73620f02ab528147660e00f0a698361c421710aa1b5",
    "paley13/rho4/learn": "17592b0d66429ff7ce3ff8de344588ed72366ac2922776403fa0552f2686aa56",
    "paley13/rho4/filter": "5415ec70361b5c5bebd0c82b2b2018b3a9ef463e6d07f368fa764457abc54eb5",
    "s16u/rho0/learn": "4d00ef5e9460268bfab9ec67283ffdbaa0659c578139eb1b11e70da09a3472e2",
    "s16u/rho0/filter": "9fae3b96a9ca4f34605816c94eb3f2506f773f542230f1f3053b9c1f69ce2533",
    "s16u/rho2/learn": "a12465f9466ad0614dceff06aa1a952d914c18ce67df1967d0d76e4f08e6c45d",
    "s16u/rho2/filter": "94de3679e7d37f3a84ac7ac098b3ca998ae545b80d4a18ed5dfd95e075d37733",
    "s16u/rho4/learn": "4c030571a227c47b5fba2fa4679df67f6dba5b312f19ec1c2fff1b81f4683b0a",
    "s16u/rho4/filter": "ad17650fba95f0a9465ee7911f7a0babdbe7c098305b1e73d9c88ddbf59073c2",
    "s1_15u/rho0/learn": "c5e8ce2ecab09345dd890b948b3e852ec1e10b104a0b73243a97ee3bcbc699ea",
    "s1_15u/rho0/filter": "88c890199dd9efec0c155bc61825574b9420fd0ca482e7c76e31b4a016380c18",
    "s1_15u/rho2/learn": "9ece68c4e666e275a3ab12e5b7a37c97f71c8899e328c9d0693126dd19805ba8",
    "s1_15u/rho2/filter": "3dd87c4a6515844db6e845affaa22728aede94591e39f92a0d65ccff61289ca9",
    "s1_15u/rho4/learn": "cdcc7c40122402e405020c868e37f69218a11d80c82ec85db0cd840a82b1deba",
    "s1_15u/rho4/filter": "fcbf0a254c20eacfda3ab87f5e2348aef2343a535f27f08a6237b06bdcd90b4d",
    "s2_12u/rho0/learn": "fb820adbeacb3e006591fcbc6cb63e66a4c54c66a32e75631c0735fc86786523",
    "s2_12u/rho0/filter": "ba9e9e7cb326f2f4790dedfd757e4465d76b6cda18cb7b3b6ec1e05a6c02866b",
    "s2_12u/rho2/learn": "903f6cf0b40493011fbead78ff5d111045c522fc723f4fab26d0fdfac37f3be2",
    "s2_12u/rho2/filter": "c6dd5f1c5b1c2f4de97a9c2ca8ccbd14a8864bcf6931a5a6cefc613294038188",
    "s2_12u/rho4/learn": "76529c6a9dfa6e29f4b5b89151dd1fbc22e2af6b3c62c779096396d847697efd",
    "s2_12u/rho4/filter": "10764f5263179d1b32473855971c846ae5d4a8df95f289fc51bc374d71c3dfea",
    "s3_12u/rho0/learn": "4690d4607567951a3f5886669fb288a2d77718576eed603ebb63bf058c861446",
    "s3_12u/rho0/filter": "51967035a6c285e43e55d74941535cb461002533c6f58fdc189976f1190304d5",
    "s3_12u/rho2/learn": "2c2d72778a4ebd5a2013b1af9693a660852ba59c9f39ee9a4608cffc51b7c0f9",
    "s3_12u/rho2/filter": "cf7d784361ba978837772ddc1b4c641e03c498b00747e38bf7951e003b69ab16",
    "s3_12u/rho4/learn": "6547a18589ac7a7154ac118ceb6e0924a802f180da2dcf43a5ccad0a4abb1704",
    "s3_12u/rho4/filter": "8d2ec8e3ba1c161658b5b42f729e96ca0f9f4077296fa9586b78bac49e3d0978",
    "K8,8/rho4/learn": "b4171954bf1b94dce9da130ae5aebb7ceb8a8992f5512cae266dc5a6b8d82efa",
    "K8,8/rho4/filter": "ea0bb174a764c5997097bc51723075559a1a644a7e5c31861ddf8b2665f44b40",
    "K8,8/rho4/twins": "4c74f4e3c2ab3778b7e6c62e21c8cf5a42c0fc61762272e722fbb87da6d37692",
}


def test_dfs_trees_match_pins():
    got = pin_digests()
    assert list(got) == list(PINS)
    changed = [label for label in PINS if got[label] != PINS[label]]
    assert not changed, f"DFS tree drifted for {changed}"


# (nodes, leaves, pruned_degree, pruned_pair, raw_hits) of each SWEEP search
SWEEP_COUNTERS = (
    (7017, 0, 0, 5947, 0),
    (4262, 12, 54, 3439, 12),
    (717, 0, 80, 484, 0),
    (0, 0, 0, 0, 0),
    (701, 2, 26, 526, 2),
    (4, 0, 0, 2, 0),
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_counters_are_pinned(jobs):
    """The tree search_srsg walks, in each host's search order and with the
    look-ahead, has the same counters at every worker count; order9 at
    rho=0 needs no DFS, as n * k is odd."""
    got = [(s.nodes, s.leaves, s.pruned_degree, s.pruned_pair, s.raw_hits) for s in sweep_stats(jobs)]
    assert dict(zip(SWEEP, got)) == dict(zip(SWEEP, SWEEP_COUNTERS))


def _entries_by_class(n, pm, nm):
    """For the signing with rows pm, nm: the set of A^2 entries of its
    (positive, negative, non-adjacent) pairs, from the dense oracle."""
    sg = SignedGraph(n, pm, nm)
    sq = brute_square(sg)
    classes = (set(), set(), set())
    for i in range(n):
        for j in range(i + 1, n):
            classes[{1: 0, -1: 1, 0: 2}[sg.sign(i, j)]].add(sq[i][j])
    return classes


def _admitted(classes, sets):
    """Whether each class holds at most one entry, admitted by its set."""
    return all(len(vals) <= 1 and (s is None or vals <= s) for vals, s in zip(classes, sets))


SMALL_PIN_HOSTS = {name: u for name, u, _ in pin_hosts() if u.n <= 9}


@pytest.mark.parametrize("name", SMALL_PIN_HOSTS)
def test_sets_keep_exactly_the_admitted_leaves(name):
    """One pair rule, checked against the degree-only DFS and the dense A^2
    oracle, which share none of its pair pruning: at every net degree, with
    and without the look-ahead, the DFS under per-class sets yields, in
    order, the degree-only leaves whose entries are constant on each class
    and admitted by its set, and walks no more nodes than the DFS that
    learns with no set.  The sets are FILTER, the singletons of the first
    such leaf with no set, and those of its first and last class alone, one
    empty set (a vacuous class) and no set."""
    u = SMALL_PIN_HOSTS[name]
    r = u.degree(0)
    for rho in range(-r, r + 1, 2):
        k = (r - rho) // 2
        leaves = [(leaf, _entries_by_class(u.n, *leaf)) for leaf in _search_raw(u.nbr, u.n, k)]
        hit = next((cl for _, cl in leaves if _admitted(cl, LEARN)), ({0}, {0}, {0}))
        filters = {
            "FILTER": FILTER,
            "singleton": tuple(frozenset(vals) for vals in hit),
            "two singletons": (frozenset(hit[0]), None, frozenset(hit[2])),
            "vacuous b": (None, frozenset(), None),
            "none": LEARN,
        }
        for lookahead in (False, True):
            learn_nodes = [0, 0, 0, 0]
            for _ in _search_raw(u.nbr, u.n, k, LEARN, None, learn_nodes, lookahead=lookahead):
                pass
            for label, sets in filters.items():
                counters = [0, 0, 0, 0]
                got = list(_search_raw(u.nbr, u.n, k, sets, None, counters, lookahead=lookahead))
                want = [leaf for leaf, cl in leaves if _admitted(cl, sets)]
                case = (name, rho, label, lookahead)
                assert got == want, case
                assert counters[0] <= learn_nodes[0], case
