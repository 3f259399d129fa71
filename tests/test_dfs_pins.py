"""Pinned DFS trees: counters and leaves of `_search_raw`.

The signing DFS must keep its tree when its inner loop changes: the same
nodes, prunes and leaves in the same order.  For every host, net-degree and
pruning mode one digest is pinned: sha256 of the repr of two (counters,
leaves) pairs, namely the full search and the search under a node budget
of 1,000.  The "twins" mode pins the twin-reduced DFS (pair pruning by
learned entries, twins=True) on the hosts that have two vertices with equal
host rows once each ignores the other.  Every pin runs the DFS on the host
as given and without the look-ahead; the iso modes of `search_srsg` walk
it in the host's search order and with the look-ahead, and
`test_sweep_counters_are_pinned` and `test_target_counters_are_pinned` pin
the counters of that tree on the six sweep searches and on the target
hosts.  To regenerate the table from a trusted checkout, run
`pin_digests()` with that checkout's `src` on the path.
"""

import hashlib
import os

import pytest

from conftest import FIXTURES, SWEEP, brute_square, kmm, sweep_stats
from srsg.core import SignedGraph
from srsg.search import SearchConfig, SearchStats, _search_raw, search_srsg
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
    """(label, nbr, k, allowed, twins): learning (allowed=LEARN) and
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
                yield f"{name}/rho{rho}/{mode}", u.nbr, (r - rho) // 2, allowed, twins


def _run(nbr, k, allowed, twins, budget=None):
    """The DFS's counters, as the list the pins were taken of, and its leaves."""
    stats = SearchStats()
    items = list(_search_raw(nbr, k, allowed, budget, stats, twins=twins))
    return [stats.nodes, stats.leaves, stats.pruned_degree, stats.pruned_pair], items


def pin_digests():
    out = {}
    for label, nbr, k, allowed, twins in pin_cases():
        runs = [
            _run(nbr, k, allowed, twins),
            _run(nbr, k, allowed, twins, budget=BUDGET),
        ]
        out[label] = hashlib.sha256(repr(runs).encode()).hexdigest()
    return out


PINS = {
    "6reg_order8.g6#0/rho0/learn": "ba16551e1409e12364406b6617cbc8b4a187e6830533b1daae0bb20e4f156ab2",
    "6reg_order8.g6#0/rho0/filter": "936bba225b4d453a727f9f2efb6f25a3030e83a418aa55fb2fe213a72af6856e",
    "6reg_order8.g6#0/rho0/none": "9c3e1ba05ebd60fc58af4c876485dc95d91196206f833b69c3cb33bcdbde9a93",
    "6reg_order8.g6#0/rho0/twins": "e11ba1a00bb630688ca20ef404adbb8372867870cfe005c3cce23cf7c5648761",
    "6reg_order8.g6#0/rho2/learn": "546f6883d427f94dfff88114c0acd9a12f09dc946871bb8d88e41827c2753157",
    "6reg_order8.g6#0/rho2/filter": "1ab929e9701e9ecc24058c11eb6b78bf95178ec9b1702b77e0375e0472afb757",
    "6reg_order8.g6#0/rho2/none": "622ee634998181547fd05b5366fa5acee1c73a192b2d1890954f2a866ab260b9",
    "6reg_order8.g6#0/rho2/twins": "259cd04369f85e0ea70901e4dc9a26ead89ba6c7c5e04c4e6f052bca9d393f01",
    "6reg_order8.g6#0/rho4/learn": "d4870ca2d90f122ce82782d7436253759a7fab9f60f1b3b48869479a633ffd5a",
    "6reg_order8.g6#0/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order8.g6#0/rho4/none": "c26617ac4ba0d71c05dd0e1ec06baa006f4fe64fda4508385fb77ce2df04d05c",
    "6reg_order8.g6#0/rho4/twins": "5dd52761c48d208b712aa8d0a76952624251ce9d2c092179090631ce2c7dd340",
    "6reg_order9.g6#0/rho0/learn": "d9eef9b50b29d789260cf1e67afe3f53434309725dcecd18b92835988af92ff5",
    "6reg_order9.g6#0/rho0/filter": "88e9c5977c0ba88b88846515d927abf42c1eb9bb1e77520d3479802acea8c489",
    "6reg_order9.g6#0/rho0/none": "500588d922c547563a24f6673333fe58bd77b7f7593049fd87accf57d0debade",
    "6reg_order9.g6#0/rho0/twins": "ae88ff9cae61cb2abfca8abb43f80fd77bc5a767c69a69e4e96f7874e5d9cd34",
    "6reg_order9.g6#0/rho2/learn": "7fbf4ad4fe549230e84a2bee4ace1caed62a795129683fbf237f18679f66eb1e",
    "6reg_order9.g6#0/rho2/filter": "b0c5fc40d063fc6861766201e398a1a43ed2cbfeabe85a931191294e20d6a52f",
    "6reg_order9.g6#0/rho2/none": "76d76e5c4a63c169f9587a7166f97ed31f6a61e777451daecc5f39b82b31762a",
    "6reg_order9.g6#0/rho2/twins": "d57e41cdf46af960f2c84411ab402b6d3890cd44b9c738b77cf310e1ee5954fb",
    "6reg_order9.g6#0/rho4/learn": "5a6185821ef9072823c199eec6919bf1140a3634c3b93279d81cb7687e647044",
    "6reg_order9.g6#0/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order9.g6#0/rho4/none": "3045ae79bcc35c52a3eb897b20ba7621680963abf0793c9947ba0d017353b31b",
    "6reg_order9.g6#0/rho4/twins": "d5a588bfc612f7088cef287df6c1625f659d8e4f060d8536e74fd75bfd78b841",
    "6reg_order9.g6#1/rho0/learn": "10e6737dfe335d5c7a04147805fef19e289c6d02573d157bddaf7044e937fa24",
    "6reg_order9.g6#1/rho0/filter": "d8d9d390cdab1f5c0ee6482191ad8fc42ee28f80885dba9006d65c996b6ea555",
    "6reg_order9.g6#1/rho0/none": "941bba43460a2bdebbe213d0b2003d40c3403d9f17461099f2e2a30bd1e9394f",
    "6reg_order9.g6#1/rho0/twins": "10e6737dfe335d5c7a04147805fef19e289c6d02573d157bddaf7044e937fa24",
    "6reg_order9.g6#1/rho2/learn": "d2fe81ea57c77e2b6715b12a24778324def0e0bdea2f99cc127af6861fcae715",
    "6reg_order9.g6#1/rho2/filter": "b0c5fc40d063fc6861766201e398a1a43ed2cbfeabe85a931191294e20d6a52f",
    "6reg_order9.g6#1/rho2/none": "df2c0d79c6369b12caa7751f4852e996b216bde0ed35f1a847663edab110a2f6",
    "6reg_order9.g6#1/rho2/twins": "d2fe81ea57c77e2b6715b12a24778324def0e0bdea2f99cc127af6861fcae715",
    "6reg_order9.g6#1/rho4/learn": "a3ae0c60e87031e1d1df9a25df69bafeee832eecf372b39764bd06869800797a",
    "6reg_order9.g6#1/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order9.g6#1/rho4/none": "42817b153907c7f76f9477ead2cb88019ad255cf13713230527cbc8a636c9d22",
    "6reg_order9.g6#1/rho4/twins": "a3ae0c60e87031e1d1df9a25df69bafeee832eecf372b39764bd06869800797a",
    "6reg_order9.g6#2/rho0/learn": "ecacda4a99dd36faeeb243624e29ed17fec7c4282271827e57d9795acbd2d049",
    "6reg_order9.g6#2/rho0/filter": "8c50dc3b3604ab6621d2c429ca3c4ad6f376aa8bcc32cb958ab1fb1b16dbef11",
    "6reg_order9.g6#2/rho0/none": "f4206a3022a018a0e7800e900625604e55339e79c1403d7c0369db5ccc6dbd83",
    "6reg_order9.g6#2/rho0/twins": "ecacda4a99dd36faeeb243624e29ed17fec7c4282271827e57d9795acbd2d049",
    "6reg_order9.g6#2/rho2/learn": "e6bf8d54c9a76cb7468c0806825840217ebaa589c5daa9b12a237dd8171c3e2e",
    "6reg_order9.g6#2/rho2/filter": "b79ace4f95c6c47ed15d9c6a4eabff4522659baba0361d7bbac606b3d51ed911",
    "6reg_order9.g6#2/rho2/none": "9ecbae95c3ea5402edb6ac10881ec1ca5b7365a5a49e6cade9e4d86bf5a1bfb2",
    "6reg_order9.g6#2/rho2/twins": "e6bf8d54c9a76cb7468c0806825840217ebaa589c5daa9b12a237dd8171c3e2e",
    "6reg_order9.g6#2/rho4/learn": "909cfd11841428e2cbcd1b557a753e75b9ed454046a47e206bd65452d52a3ee6",
    "6reg_order9.g6#2/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order9.g6#2/rho4/none": "7396341cdff6eae4e95ccb633292771b331af4d152b63dd56f9ee017d7b5859b",
    "6reg_order9.g6#2/rho4/twins": "909cfd11841428e2cbcd1b557a753e75b9ed454046a47e206bd65452d52a3ee6",
    "6reg_order9.g6#3/rho0/learn": "23f460892b284b32b8d6a3379d9a09b47126acdd28f805b2d84d543d0e961871",
    "6reg_order9.g6#3/rho0/filter": "2ad4a4a2b252896a118e798a44ba25c7b9a79e9fa425dc268cb97a88d28d9efd",
    "6reg_order9.g6#3/rho0/none": "b27027ac9c357cc4c38d7690e32c2803436028718620ee5ecea9dc3412d5fcf3",
    "6reg_order9.g6#3/rho2/learn": "092125e73efd323233dc981eb6935fe090e1c5783e7ada6b61be6d517dec5474",
    "6reg_order9.g6#3/rho2/filter": "a7613e019e35482370e3e66c5831f75887309a9bbb6eb3ba9d5428d49f8e27b5",
    "6reg_order9.g6#3/rho2/none": "4d8f69634c9a7b7271be5759cfeaa7872f14b706af3faa4f61c66751dbab112e",
    "6reg_order9.g6#3/rho4/learn": "24abbc689a6594d59ad86f37d022e7578d41d624e1c8aef467b2412cf152a821",
    "6reg_order9.g6#3/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order9.g6#3/rho4/none": "11ad3713e032411935c295a2699d1c4002c1b02bbd78a9d520266844b1ed2ebc",
    "6reg_order10.g6#0/rho0/learn": "ee227707d40f9d424c2b0278eb09dfa7936d56ac81817e2ea378989f7df22a28",
    "6reg_order10.g6#0/rho0/filter": "15d1f6fc81ce4f18f8cab71433c9f4e467dc62f32440c1a423155d58ff64f1a5",
    "6reg_order10.g6#0/rho0/twins": "ee227707d40f9d424c2b0278eb09dfa7936d56ac81817e2ea378989f7df22a28",
    "6reg_order10.g6#0/rho2/learn": "a6ed07cd9e679892ebc7415f5a87be6f06d99cfc8ef86c74a78ab75ce2030c94",
    "6reg_order10.g6#0/rho2/filter": "363f32ba1cbb6233c55dc707ebae44cd2dc6d0ec7f8e6e6d22c1dde7be107f0c",
    "6reg_order10.g6#0/rho2/twins": "a6ed07cd9e679892ebc7415f5a87be6f06d99cfc8ef86c74a78ab75ce2030c94",
    "6reg_order10.g6#0/rho4/learn": "0427a619a344c4fb346b83a8415d80715c799033b502f8a0764e82c746e00d28",
    "6reg_order10.g6#0/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#0/rho4/twins": "0427a619a344c4fb346b83a8415d80715c799033b502f8a0764e82c746e00d28",
    "6reg_order10.g6#1/rho0/learn": "ee227707d40f9d424c2b0278eb09dfa7936d56ac81817e2ea378989f7df22a28",
    "6reg_order10.g6#1/rho0/filter": "15d1f6fc81ce4f18f8cab71433c9f4e467dc62f32440c1a423155d58ff64f1a5",
    "6reg_order10.g6#1/rho0/twins": "3b43f0d4e5af0b8825b6e330d47c43eef85a9be225b8224d74025eb6e05595a1",
    "6reg_order10.g6#1/rho2/learn": "a6ed07cd9e679892ebc7415f5a87be6f06d99cfc8ef86c74a78ab75ce2030c94",
    "6reg_order10.g6#1/rho2/filter": "363f32ba1cbb6233c55dc707ebae44cd2dc6d0ec7f8e6e6d22c1dde7be107f0c",
    "6reg_order10.g6#1/rho2/twins": "be9268d5c056475c68374c29c6ba278caa52abb2280bc23e9bccb8b3f551620a",
    "6reg_order10.g6#1/rho4/learn": "185c7ba0c2377c1811b8d2476f067a652ecbc1389632ad603fea76452cdb6d15",
    "6reg_order10.g6#1/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#1/rho4/twins": "f8c9f4e55085fdf5552ec9d220aea548c5d4799ce3438f58248c0b73863a5242",
    "6reg_order10.g6#2/rho0/learn": "12391c2cbd2d2f4a4097234ba707fd15e3d9cfeb23689fa5cf5e2eba19b2eb50",
    "6reg_order10.g6#2/rho0/filter": "7a85e9f4c575a1412e47bb6b1077b2623c40d08a4f03c30e3af32f71ff60af8c",
    "6reg_order10.g6#2/rho0/twins": "12391c2cbd2d2f4a4097234ba707fd15e3d9cfeb23689fa5cf5e2eba19b2eb50",
    "6reg_order10.g6#2/rho2/learn": "af20992ef911c711649b71bd338cb55a3c2d021daa8f2f7424ff08538ef7b694",
    "6reg_order10.g6#2/rho2/filter": "bc2237924d37806dd6e5b67d5177d2df649538fe88d7491ec2899e526615a6db",
    "6reg_order10.g6#2/rho2/twins": "af20992ef911c711649b71bd338cb55a3c2d021daa8f2f7424ff08538ef7b694",
    "6reg_order10.g6#2/rho4/learn": "de7f34623865c62547cd96137e1dd887d2ab51372b343ef2586c37b2404de62b",
    "6reg_order10.g6#2/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#2/rho4/twins": "de7f34623865c62547cd96137e1dd887d2ab51372b343ef2586c37b2404de62b",
    "6reg_order10.g6#3/rho0/learn": "12391c2cbd2d2f4a4097234ba707fd15e3d9cfeb23689fa5cf5e2eba19b2eb50",
    "6reg_order10.g6#3/rho0/filter": "7a85e9f4c575a1412e47bb6b1077b2623c40d08a4f03c30e3af32f71ff60af8c",
    "6reg_order10.g6#3/rho0/twins": "92ca84db25dd41b7db8e76d3d58b4620b0472196760c10849a081f8555c049b8",
    "6reg_order10.g6#3/rho2/learn": "af20992ef911c711649b71bd338cb55a3c2d021daa8f2f7424ff08538ef7b694",
    "6reg_order10.g6#3/rho2/filter": "bc2237924d37806dd6e5b67d5177d2df649538fe88d7491ec2899e526615a6db",
    "6reg_order10.g6#3/rho2/twins": "62b213497cf19e71967cfb349f8f1bc5520af9d5835f1751d9cc920803ec03d3",
    "6reg_order10.g6#3/rho4/learn": "de7f34623865c62547cd96137e1dd887d2ab51372b343ef2586c37b2404de62b",
    "6reg_order10.g6#3/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#3/rho4/twins": "bb9ba31804be329fd752efa996e82a5c125be0f10364c9c3a6b6c1b484838348",
    "6reg_order10.g6#4/rho0/learn": "12391c2cbd2d2f4a4097234ba707fd15e3d9cfeb23689fa5cf5e2eba19b2eb50",
    "6reg_order10.g6#4/rho0/filter": "7a85e9f4c575a1412e47bb6b1077b2623c40d08a4f03c30e3af32f71ff60af8c",
    "6reg_order10.g6#4/rho0/twins": "12391c2cbd2d2f4a4097234ba707fd15e3d9cfeb23689fa5cf5e2eba19b2eb50",
    "6reg_order10.g6#4/rho2/learn": "1b34c7a82f93ce6d0ec5865b0f624292b97efc55f427dd2747b415aab55a6b3f",
    "6reg_order10.g6#4/rho2/filter": "bc2237924d37806dd6e5b67d5177d2df649538fe88d7491ec2899e526615a6db",
    "6reg_order10.g6#4/rho2/twins": "1b34c7a82f93ce6d0ec5865b0f624292b97efc55f427dd2747b415aab55a6b3f",
    "6reg_order10.g6#4/rho4/learn": "de7f34623865c62547cd96137e1dd887d2ab51372b343ef2586c37b2404de62b",
    "6reg_order10.g6#4/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#4/rho4/twins": "de7f34623865c62547cd96137e1dd887d2ab51372b343ef2586c37b2404de62b",
    "6reg_order10.g6#5/rho0/learn": "9034ae9e52a2f15d57ee57055a97bd20c5fe4580fb11158212539f7db609f2af",
    "6reg_order10.g6#5/rho0/filter": "adba22f78cb78f60156bbb8c73ccced4aaccdad1acad46998962fb4023f30946",
    "6reg_order10.g6#5/rho0/twins": "691a571adb3a9dd41f55b1e203ebf62389769a79c1ca13340ade8e2d0f6884aa",
    "6reg_order10.g6#5/rho2/learn": "00f75b3bf1861c47741039a3a793b788ba28e816c18f924be6f684befa6f702a",
    "6reg_order10.g6#5/rho2/filter": "19161292bca29efaf9980e64beb60ad9b6ecbc55715f17141fbe57e28f06cbfc",
    "6reg_order10.g6#5/rho2/twins": "8188559bb8b6cb78e027fddc365a783c39cffec748609e6afbbf188cdbd05705",
    "6reg_order10.g6#5/rho4/learn": "36d84402778eaeafe2b3b6c8df6d4d2bd478a8f1ee527ee5697642307c57bf7a",
    "6reg_order10.g6#5/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order10.g6#5/rho4/twins": "db5d30bb259a3360a63f6e39aa240293de2593fec07c5514291358e583fd8d93",
    "6reg_order10.g6#6/rho0/learn": "f7ac2b8e560076649d3289966a2a7e528f00d297493d2ecc2f08a899bc983b48",
    "6reg_order10.g6#6/rho0/filter": "e792f37b0e733fdc45f5f6621d7af9155a5c051696d240eb70fe37684cdec853",
    "6reg_order10.g6#6/rho2/learn": "1c69f47ea66b43042b4b4b19a349213cd0405117917fb9fe79a91be712611297",
    "6reg_order10.g6#6/rho2/filter": "19161292bca29efaf9980e64beb60ad9b6ecbc55715f17141fbe57e28f06cbfc",
    "6reg_order10.g6#6/rho4/learn": "346db9493105d7d3207d57ace550b6b9b4940d11e9d78d1b61504d683e2d4159",
    "6reg_order10.g6#6/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order10.g6#7/rho0/learn": "f7ac2b8e560076649d3289966a2a7e528f00d297493d2ecc2f08a899bc983b48",
    "6reg_order10.g6#7/rho0/filter": "e792f37b0e733fdc45f5f6621d7af9155a5c051696d240eb70fe37684cdec853",
    "6reg_order10.g6#7/rho2/learn": "1c69f47ea66b43042b4b4b19a349213cd0405117917fb9fe79a91be712611297",
    "6reg_order10.g6#7/rho2/filter": "19161292bca29efaf9980e64beb60ad9b6ecbc55715f17141fbe57e28f06cbfc",
    "6reg_order10.g6#7/rho4/learn": "346db9493105d7d3207d57ace550b6b9b4940d11e9d78d1b61504d683e2d4159",
    "6reg_order10.g6#7/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order10.g6#8/rho0/learn": "935b8469761d3d645b95316a1104a5d2eea6db87ed102c24aea4f35d57a1b6fa",
    "6reg_order10.g6#8/rho0/filter": "1f59451e1b9749be8b0bcd3ddbdb98542eb3a191bcce61a6e859623f4b77d5b1",
    "6reg_order10.g6#8/rho2/learn": "521d906dd1209071bbd3c38625cbb436720399a77faeccb2179c096cbb58fe86",
    "6reg_order10.g6#8/rho2/filter": "0ae70a2a0dee7f28d0b75e57d87ba158287f23077949d70a7abcec4ff58554ac",
    "6reg_order10.g6#8/rho4/learn": "8f939feda297705390faca77f0e9305190650575b0e159d0fb10e034e591c3a1",
    "6reg_order10.g6#8/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order10.g6#9/rho0/learn": "806426a053404221cf2fed3c410fdf0976d89446878627153c7d2797add16e9c",
    "6reg_order10.g6#9/rho0/filter": "ad902214ce4b4336c912076d99363046b98e9a5859b07d339d86b224ab121e39",
    "6reg_order10.g6#9/rho2/learn": "3a1254d51c19816a1850f36fcb0ea5fa56cdcf672be0124c755a978e9807c990",
    "6reg_order10.g6#9/rho2/filter": "3ece2981eaaf89bcb0458000847b7081020bc45740f7159b675b4a750943428a",
    "6reg_order10.g6#9/rho4/learn": "4e2650051f7eb1e63bdfe4a83d367d090a8565415fccdedb1f13c8d92e5f5843",
    "6reg_order10.g6#9/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#10/rho0/learn": "806426a053404221cf2fed3c410fdf0976d89446878627153c7d2797add16e9c",
    "6reg_order10.g6#10/rho0/filter": "ad902214ce4b4336c912076d99363046b98e9a5859b07d339d86b224ab121e39",
    "6reg_order10.g6#10/rho2/learn": "3a1254d51c19816a1850f36fcb0ea5fa56cdcf672be0124c755a978e9807c990",
    "6reg_order10.g6#10/rho2/filter": "3ece2981eaaf89bcb0458000847b7081020bc45740f7159b675b4a750943428a",
    "6reg_order10.g6#10/rho4/learn": "4e2650051f7eb1e63bdfe4a83d367d090a8565415fccdedb1f13c8d92e5f5843",
    "6reg_order10.g6#10/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#11/rho0/learn": "95a578854d1ac58ecca81d6b205fe16fdb462615510751c6b11fac5206228903",
    "6reg_order10.g6#11/rho0/filter": "c8fdb1208835cfdc66b5b0f8b0500ab85cc4bb3420bbb14cd53ff2e1ea7e8322",
    "6reg_order10.g6#11/rho0/twins": "72fcfe58dd68c891253e3aedd4d4693aa9ac406558a5a9193c4ab9ed4b0e1f62",
    "6reg_order10.g6#11/rho2/learn": "4a9294aab8745b086af83834a36362213318c5f5f34998f21e6ffb4f4a6e4de5",
    "6reg_order10.g6#11/rho2/filter": "4d32c94f1ddf30cbff74ae837017fec175b695212055250754719c07e22fcc4c",
    "6reg_order10.g6#11/rho2/twins": "e0bde7cf6a9660dd930a91a6ce75e48c66faec23d52faaabc07b6eff2eb49a73",
    "6reg_order10.g6#11/rho4/learn": "2e231facf4cf1f5e23cf54aa670bbe51981701f3301ee615a99277dae0600903",
    "6reg_order10.g6#11/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#11/rho4/twins": "e3bfbc0b66cbbf07b24914cf0da9fc3689e7256966b592bebebf365b6abd6f17",
    "6reg_order10.g6#12/rho0/learn": "4ad1778943e238bce9e79b91dece2cdc4125386d8be30c87c3f339bc6dd0c32b",
    "6reg_order10.g6#12/rho0/filter": "5b62ee4e2f1bf3ca3841a43794390f7ef10bc919a78125cee4728ea98ed42ab0",
    "6reg_order10.g6#12/rho2/learn": "e675c842498e557d3f2053244c8809da5230df025744db019baee9183147f9a1",
    "6reg_order10.g6#12/rho2/filter": "f98597be780950728a447f8b29eba8e7f73ae67b326b3b112df6868ea91c7869",
    "6reg_order10.g6#12/rho4/learn": "a37a905afd6eeec56e94c44a7498f7d90a4d39c11caf1ea9d8aa54355875bf3e",
    "6reg_order10.g6#12/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#13/rho0/learn": "4ad1778943e238bce9e79b91dece2cdc4125386d8be30c87c3f339bc6dd0c32b",
    "6reg_order10.g6#13/rho0/filter": "5b62ee4e2f1bf3ca3841a43794390f7ef10bc919a78125cee4728ea98ed42ab0",
    "6reg_order10.g6#13/rho2/learn": "e675c842498e557d3f2053244c8809da5230df025744db019baee9183147f9a1",
    "6reg_order10.g6#13/rho2/filter": "f98597be780950728a447f8b29eba8e7f73ae67b326b3b112df6868ea91c7869",
    "6reg_order10.g6#13/rho4/learn": "a37a905afd6eeec56e94c44a7498f7d90a4d39c11caf1ea9d8aa54355875bf3e",
    "6reg_order10.g6#13/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#14/rho0/learn": "4ad1778943e238bce9e79b91dece2cdc4125386d8be30c87c3f339bc6dd0c32b",
    "6reg_order10.g6#14/rho0/filter": "5b62ee4e2f1bf3ca3841a43794390f7ef10bc919a78125cee4728ea98ed42ab0",
    "6reg_order10.g6#14/rho2/learn": "e675c842498e557d3f2053244c8809da5230df025744db019baee9183147f9a1",
    "6reg_order10.g6#14/rho2/filter": "f98597be780950728a447f8b29eba8e7f73ae67b326b3b112df6868ea91c7869",
    "6reg_order10.g6#14/rho4/learn": "a37a905afd6eeec56e94c44a7498f7d90a4d39c11caf1ea9d8aa54355875bf3e",
    "6reg_order10.g6#14/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#15/rho0/learn": "405113387790aa6aa3ef2c08752434a9194b6740b31a245a3a9dac81c96b9f88",
    "6reg_order10.g6#15/rho0/filter": "a63a1a58f3e6f38b747b3a026135a11eaa5bbe933a5f95b203fd9308e6d67c51",
    "6reg_order10.g6#15/rho2/learn": "6fce6ec333bff48afe732371a89a19a43b167940053588449d823c3dfe7e1162",
    "6reg_order10.g6#15/rho2/filter": "a9f2664ff1e34f675ee0a901979e749794e057506ebd85f594547c8a55297cd6",
    "6reg_order10.g6#15/rho4/learn": "744151fff671af8235fb55efaf1c11905d261fd2ff3accce58e3ecf004fc6cd5",
    "6reg_order10.g6#15/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#16/rho0/learn": "ef990634081e67cd144876a6467b5ad8cd79f603979c0d0065821ea3fdb050c7",
    "6reg_order10.g6#16/rho0/filter": "62789ecf5b008956fe02f403a7c36098ea2c4b66dd7b10a61844f483b5077376",
    "6reg_order10.g6#16/rho2/learn": "9e666f83c08ed0abb04179237ce88b78cdde59f0c4295a6d46b7e13e2963f93a",
    "6reg_order10.g6#16/rho2/filter": "761c72c8061dc6c54a7c22e6ecc4da24fdb529feacaee4a04c1732de7cf7488b",
    "6reg_order10.g6#16/rho4/learn": "6760de7b3d9eecb8fca76883b51411c7dea0796d920fe9f4d14b68d39398c59f",
    "6reg_order10.g6#16/rho4/filter": "6e0bcafb115367465d58891b9a78bb23d561a57289f04c8fdc942040d9fd8ca7",
    "6reg_order10.g6#17/rho0/learn": "806426a053404221cf2fed3c410fdf0976d89446878627153c7d2797add16e9c",
    "6reg_order10.g6#17/rho0/filter": "1786c1dfd9f39a636e3837eec441ac91716d24de59ae20c070e6e1bc6656412e",
    "6reg_order10.g6#17/rho2/learn": "3a1254d51c19816a1850f36fcb0ea5fa56cdcf672be0124c755a978e9807c990",
    "6reg_order10.g6#17/rho2/filter": "c943b3028a1959347131302e90c3d47917f97db73399efabd20ca2c2038f62b7",
    "6reg_order10.g6#17/rho4/learn": "20c5eccd5dba12ec68a279cd0b9f54168b44211ac95af3dd4bc29e75299be6da",
    "6reg_order10.g6#17/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "6reg_order10.g6#18/rho0/learn": "45a447f8814303e68b35604dec6a10db5064d575ff311d889b0699f5b9fa23fb",
    "6reg_order10.g6#18/rho0/filter": "f6a717b8dda536c5d67300cd5c85c40e926d7e3e6e5b0c491e3ff243b662e947",
    "6reg_order10.g6#18/rho0/twins": "2dff2b7029025ccd793589c81962ee00e5a5efab8bcb78b451b5f24760fb5a32",
    "6reg_order10.g6#18/rho2/learn": "6fcca9c9f399fe64c496410649d46da2e4fc895e47afdb780354da3f685f22b1",
    "6reg_order10.g6#18/rho2/filter": "274d8d7a93bc3403b98906a8c857ce87a43732ac8d346bdd390cd970f67375e3",
    "6reg_order10.g6#18/rho2/twins": "73b17f424859aa8147848222238dc49577bf28081ad3a0ccbcd36a686c468333",
    "6reg_order10.g6#18/rho4/learn": "c1ee30f369f57fe78594892c2fd0a2dfc681a09b7dbecca82e82ad0db1c84c5e",
    "6reg_order10.g6#18/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#18/rho4/twins": "2abffd553b7676895b2e9c9f9d3dd82d9d954eae091d4d1c562d39caeff62a46",
    "6reg_order10.g6#19/rho0/learn": "45a447f8814303e68b35604dec6a10db5064d575ff311d889b0699f5b9fa23fb",
    "6reg_order10.g6#19/rho0/filter": "f6a717b8dda536c5d67300cd5c85c40e926d7e3e6e5b0c491e3ff243b662e947",
    "6reg_order10.g6#19/rho0/twins": "e9b3e564cddfa93fdbd5a6a6fdcf4ee6c96c4ee1f6e2840aafd3b5896b852832",
    "6reg_order10.g6#19/rho2/learn": "6fcca9c9f399fe64c496410649d46da2e4fc895e47afdb780354da3f685f22b1",
    "6reg_order10.g6#19/rho2/filter": "274d8d7a93bc3403b98906a8c857ce87a43732ac8d346bdd390cd970f67375e3",
    "6reg_order10.g6#19/rho2/twins": "e69892d511d386a2e151ee918fd8c38098dbbaede4e443f1129f19fabaedd374",
    "6reg_order10.g6#19/rho4/learn": "c1ee30f369f57fe78594892c2fd0a2dfc681a09b7dbecca82e82ad0db1c84c5e",
    "6reg_order10.g6#19/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "6reg_order10.g6#19/rho4/twins": "3461fcc0148a67658145653cdd5ed405d6486bfde10a0fe25e38be4006343eae",
    "6reg_order10.g6#20/rho0/learn": "6316afb8798b4b64c1f0cf6fcfc4179559fcbe710e78faacccfa3eabcdf5e647",
    "6reg_order10.g6#20/rho0/filter": "9e7441967eb7133e5fd5c285c8dac981274df0395a5c063fcc7f6f10806be6c3",
    "6reg_order10.g6#20/rho2/learn": "879bb9d6b891a4756a06f1e1bb35a3717fa44ce260116ddd2b51511014c701f8",
    "6reg_order10.g6#20/rho2/filter": "de6772fc2c5ce4e8b0ec98fe7616930847369326e1ea0ade12c8cd26d890c9a5",
    "6reg_order10.g6#20/rho4/learn": "08f38f37f98e76efec77c6b6d3062c95f9e59367ab66d4b9d50b466d3cf47e1b",
    "6reg_order10.g6#20/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "g8/rho0/learn": "c00f3bd39a4cc4b1b65a11c9cdcb520faf7f9cc9767a687ffecce37183406677",
    "g8/rho0/filter": "88bcf651b7eca650c440ff5db9169af91a7b0ecf2761f541d26d0306be5870f5",
    "g8/rho0/none": "9103d399aa272c6474b838766fdf77827e8dc6b23ce6efb259b1f86df75f1ae2",
    "g8/rho0/twins": "8b8fe9d342037d61ea98f4c951582e290b37d977f5c340803face49b7ee9377d",
    "g8/rho2/learn": "df7c12bc34dfed6b97e0f68968d48173d615faf520c6c7ab6d9d4e3d47e0eefa",
    "g8/rho2/filter": "2273428593073281c54aefb6d96b1b9cf4b4482ed8235dae8a21bd6908bd69cc",
    "g8/rho2/none": "c39be4942f013288cef4e72ed65e4466dbcbe00064c1c75f4133c49ceb831d08",
    "g8/rho2/twins": "ce16661a5c401055513776a49410eb5c4cf16df2aee8c6e9eb8d52dd20050072",
    "g8/rho4/learn": "4aef520f0842c94f466f899160879acdd253f239efe169397a91b94bad05d6ad",
    "g8/rho4/filter": "f345370b8654c77b0735c640e4e71158fa9f5bafdbec8176f1d7b0df28eeea01",
    "g8/rho4/none": "2c5e3fdd58aec38eec135adc1c08c03178b8fc35bd49c339a251e5fcca04b0aa",
    "g8/rho4/twins": "4cd3ba03267c9c670333cda9a0416abd533b5f3057d9d440df8a74b0f736086e",
    "g9/rho0/learn": "d3981a4665c3de5b225b58b463f6e739fbd60173bef46213a0b4ea7980652d5d",
    "g9/rho0/filter": "912a228fdc0de3989a26d749961664bdec245c02d668f5946385c99dac97b7de",
    "g9/rho0/none": "250906e94a43700ba57056a7be7fe38429b5df56df8406a2f61686144cc0ea3e",
    "g9/rho2/learn": "80da05473b1784cd2af3f75fde30eedba70a6f8b05b5a85ca77a78bdaaa894e1",
    "g9/rho2/filter": "a7613e019e35482370e3e66c5831f75887309a9bbb6eb3ba9d5428d49f8e27b5",
    "g9/rho2/none": "4a9d1e4c0d35bef0e722b72189e266713c506d94057a609e098f36d7166f1b61",
    "g9/rho4/learn": "24abbc689a6594d59ad86f37d022e7578d41d624e1c8aef467b2412cf152a821",
    "g9/rho4/filter": "203bf9ade5f8651929b823b4d2870cf7e67d9c4b024d30ba4cb872b6b1e31e4b",
    "g9/rho4/none": "11ad3713e032411935c295a2699d1c4002c1b02bbd78a9d520266844b1ed2ebc",
    "gq22/rho0/learn": "b520087b5aab893ae0c0eabf292230f65aa6fbb0e1bf1cc57e11308eb83837f2",
    "gq22/rho0/filter": "34f52028174ef12a4b104516c8ffc43a50b2864f8d6c78321ffce5d67ce9840c",
    "gq22/rho2/learn": "9d788ee3cc5c926c8430bc4d2f604861e1ef6903f662f6b25dbf63f582444414",
    "gq22/rho2/filter": "1d00f81e2a636bdca891aebe732f7ecaa5888d78b956d02442eab9374adf7ca9",
    "gq22/rho4/learn": "678ccce856ac41f8f64f525a4adee7c4db806d34a8f6a7f3667e9bb451d36df4",
    "gq22/rho4/filter": "baea9e12456a556feb984e76a8bc4c0d6567206c64728193c672de787a3e9626",
    "k333/rho0/learn": "d9eef9b50b29d789260cf1e67afe3f53434309725dcecd18b92835988af92ff5",
    "k333/rho0/filter": "88e9c5977c0ba88b88846515d927abf42c1eb9bb1e77520d3479802acea8c489",
    "k333/rho0/none": "500588d922c547563a24f6673333fe58bd77b7f7593049fd87accf57d0debade",
    "k333/rho0/twins": "ae88ff9cae61cb2abfca8abb43f80fd77bc5a767c69a69e4e96f7874e5d9cd34",
    "k333/rho2/learn": "7fbf4ad4fe549230e84a2bee4ace1caed62a795129683fbf237f18679f66eb1e",
    "k333/rho2/filter": "b0c5fc40d063fc6861766201e398a1a43ed2cbfeabe85a931191294e20d6a52f",
    "k333/rho2/none": "76d76e5c4a63c169f9587a7166f97ed31f6a61e777451daecc5f39b82b31762a",
    "k333/rho2/twins": "d57e41cdf46af960f2c84411ab402b6d3890cd44b9c738b77cf310e1ee5954fb",
    "k333/rho4/learn": "5a6185821ef9072823c199eec6919bf1140a3634c3b93279d81cb7687e647044",
    "k333/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "k333/rho4/none": "3045ae79bcc35c52a3eb897b20ba7621680963abf0793c9947ba0d017353b31b",
    "k333/rho4/twins": "d5a588bfc612f7088cef287df6c1625f659d8e4f060d8536e74fd75bfd78b841",
    "k66/rho0/learn": "d3578fa7a4c69d8019adbb31d2079ed25189dc1ba06911607613cfca9e1b63c0",
    "k66/rho0/filter": "27bef98829ede4b85f5322e5be1fc250147c9351c8358e2d020a8847e71d29ce",
    "k66/rho0/twins": "26371f7bc9f41fffe75294b9e0572bbca79c91c1ce4549ba3e3a1e6016617db7",
    "k66/rho2/learn": "a6ed07cd9e679892ebc7415f5a87be6f06d99cfc8ef86c74a78ab75ce2030c94",
    "k66/rho2/filter": "363f32ba1cbb6233c55dc707ebae44cd2dc6d0ec7f8e6e6d22c1dde7be107f0c",
    "k66/rho2/twins": "f0cebcc7cc5c83e5b9468d6facbcd09b6585227e113095939a373698baaed37f",
    "k66/rho4/learn": "ba4ac098a7566ef330d7ae1ff0b824edf8e7aeafc8edecc3ac269d58b4f48f38",
    "k66/rho4/filter": "126dad25d995d014c9bfe8954d70569d0ccae9a6694e9c3cf61de1c96be93d56",
    "k66/rho4/twins": "ded29d94aad8ed169f5442bb16b811915fda9f6374729fec142bfac9fa9ce70a",
    "paley13/rho0/learn": "591f3016ceeacb418b662089b703987bc283e6a0c6a5b05d45e3ec14954f0401",
    "paley13/rho0/filter": "b34189e29cbb2df2c3671c1c55075054e0efc9d62b7ccbc95a7d2a744ed9a6c4",
    "paley13/rho2/learn": "f3d6f94652d465e21acc721310356e634f03d627dc6411b5b90ece6205ebdfe1",
    "paley13/rho2/filter": "c9eabd87cba1e91933dac749566b247000eaf8ad13032bc1f22911dfe8bb4f3e",
    "paley13/rho4/learn": "60448371e9f13f862a6d18bae2e43e720d66c0790717953c8c2f2767af60e496",
    "paley13/rho4/filter": "82f622012a67fd496a259bbae42511f58167a194cf583bcd3c446566c56bba21",
    "s16u/rho0/learn": "d9ecf6d4b41e0a95ccfdd4693696453de4d4565b5175887e5a8fb1916ef52145",
    "s16u/rho0/filter": "775cdcffc2e24f8f95ae3d699441d7c21d7e56f0ca5dd4c9c95a39e971181bc3",
    "s16u/rho2/learn": "1e055b4c93f2f76229196b81011f7db727150434da33da5fb347adb703e178a3",
    "s16u/rho2/filter": "c0e2809df18f243cd48c89809bef89ed2b36940b038dd26977fd5d6b7d582721",
    "s16u/rho4/learn": "4ad08291da53a1e595727ff0d88cf6f90a72263b6fa53ee9a95f47fe07f4205c",
    "s16u/rho4/filter": "3b3fb4b9db448f8848bd171b693584fee921a51333bd34d0de007409b5dee0c5",
    "s1_15u/rho0/learn": "de82fe7a1c228b27d30451039b99102daa7694d24b27bc708aa1a311f783d34b",
    "s1_15u/rho0/filter": "c69160d3c3c9df3b3abf238a7df4527704db2a2f97bff6e9c41d1d3d00ea14ae",
    "s1_15u/rho2/learn": "a0b3e7b0866fb5b1448f8c3c6fd88b4c708688f6e2728b53457e056488783f97",
    "s1_15u/rho2/filter": "c92d57712506731a41bc804f9c062815e8dd81542795ff5081b94a80b8c01f78",
    "s1_15u/rho4/learn": "55c8e82245b2cd0fff13813648c8b84c8c8d88b4b7c3a2bce4eed66a12678606",
    "s1_15u/rho4/filter": "a336f242aac9ac2334107243100fc1902b8b0181a9d3174e9d9208ceb4727e91",
    "s2_12u/rho0/learn": "600a743e7e3f3fd89f03b41e7da69e4732a847bde3bea5496711eef9d0cf169b",
    "s2_12u/rho0/filter": "67ffd67960f918e8db14913103be023cc4c17a78115225ee3bd4137d395089a8",
    "s2_12u/rho2/learn": "914400180dec92d59ad12e56a292dfaae1c7cf2b625d28ad3d624f2783fe04e2",
    "s2_12u/rho2/filter": "9d94929dca6f66170cc714e5e1ff6cfa0e0dc8bf1fbfd686eb6ad01445e12272",
    "s2_12u/rho4/learn": "65c92aa965fbc08c0a3c7ca75bc0196e60f885b3eac79bff9711081f50345ffc",
    "s2_12u/rho4/filter": "f7d58a228fd52ef0ebd2bb8b2224acf389477c612dc45855aa6caac9df360e41",
    "s3_12u/rho0/learn": "e23762debfe4a2ed144ac2a34dc0b7c12a12e1a66ab09d07cbf58432f1d2fc1a",
    "s3_12u/rho0/filter": "4342e5baac557c314c5e2e0dd023edfcb4661b02b923ccead699e82e81402e29",
    "s3_12u/rho2/learn": "0872fdf495b9dccdd728860f8ba6a378d3f9bdbdc7e82fe6842ce4d27e0b3ca1",
    "s3_12u/rho2/filter": "ded29e712b659ec3ed23ad578ac4ebe147bb47c6f5ec40d8e363a22f7f50aa5c",
    "s3_12u/rho4/learn": "eb693caeb8fe86194240b4d864e2e64ed1d60c8d772e06f0a84fbdeb0931c433",
    "s3_12u/rho4/filter": "2c9c80a0d2ad296058428b332622a89105962ef5f474249d9b22c6f6df151337",
    "K8,8/rho4/learn": "33ebbf12332d3f35849b6d0313e8cbe2fcdbd5dca5204da71a47ba730a07728d",
    "K8,8/rho4/filter": "6ec8f6ffbdd80e5b8f7c67e3323cf5035e8ee3647d5be0bcffaf84c2039308dc",
    "K8,8/rho4/twins": "8ca4341821552fb1a17bc106971c9f53a56c16fef8055bcad5131e9149d98e38",
}


def test_dfs_trees_match_pins():
    got = pin_digests()
    assert list(got) == list(PINS)
    changed = [label for label in PINS if got[label] != PINS[label]]
    assert not changed, f"DFS tree drifted for {changed}"


# (nodes, leaves, pruned_degree, pruned_pair, raw_hits) of each SWEEP search
SWEEP_COUNTERS = (
    (1683, 0, 0, 1437, 0),
    (968, 12, 16, 755, 12),
    (134, 0, 2, 124, 0),
    (0, 0, 0, 0, 0),
    (376, 2, 4, 299, 2),
    (2, 0, 0, 1, 0),
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_counters_are_pinned(jobs):
    """The tree search_srsg walks, in each host's search order and with the
    look-ahead, has the same counters at every worker count; order9 at
    rho=0 needs no DFS, as n * k is odd."""
    got = [(s.nodes, s.leaves, s.pruned_degree, s.pruned_pair, s.raw_hits) for s in sweep_stats(jobs)]
    assert dict(zip(SWEEP, got)) == dict(zip(SWEEP, SWEEP_COUNTERS))


# (nodes, leaves, pruned_degree, pruned_pair, raw_hits) of search_srsg under
# dedupe "iso" on each TARGETS host at rho 0, 2 and 4
TARGET_COUNTERS = {
    "g8": ((225, 2, 0, 169, 2), (155, 7, 11, 81, 7), (3, 0, 0, 3, 0)),
    "g9": ((0, 0, 0, 0, 0), (36, 1, 0, 27, 1), (0, 0, 0, 0, 0)),
    "gq22": ((0, 0, 0, 0, 0), (2571, 6, 6, 2104, 6), (0, 0, 0, 0, 0)),
    "k333": ((0, 0, 0, 0, 0), (29, 1, 0, 15, 1), (0, 0, 0, 0, 0)),
    "k66": ((5, 0, 0, 3, 0), (2, 0, 0, 1, 0), (12, 1, 0, 0, 1)),
    "paley13": ((0, 0, 0, 0, 0), (664, 0, 0, 531, 0), (0, 0, 0, 0, 0)),
    "s16u": ((586, 2, 0, 488, 2), (209, 0, 3, 178, 0), (32, 0, 2, 24, 0)),
    "s1_15u": ((0, 0, 0, 0, 0), (372, 1, 10, 287, 1), (0, 0, 0, 0, 0)),
    "s2_12u": ((748, 0, 0, 620, 0), (174, 0, 9, 139, 0), (84, 1, 16, 33, 1)),
    "s3_12u": ((972, 0, 0, 814, 0), (364, 0, 0, 297, 0), (32, 1, 5, 15, 1)),
}


@pytest.mark.parametrize("name", TARGETS)
def test_target_counters_are_pinned(name):
    """The tree search_srsg walks on each target host, in its search order
    and with the look-ahead.  Unlike the sweep's trees, these depend on the
    span the identity derives for the last unlearned class: without it GQ22
    at rho=2 walks 3,371 nodes, not 2,571."""
    (u,) = read_graph6_file(os.path.join(FIXTURES, "targets", name + ".g6"))
    got = []
    for rho in (0, 2, 4):
        s = search_srsg(u, SearchConfig(rho=rho)).stats
        got.append((s.nodes, s.leaves, s.pruned_degree, s.pruned_pair, s.raw_hits))
    assert tuple(got) == TARGET_COUNTERS[name]


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
        leaves = [(leaf, _entries_by_class(u.n, *leaf)) for leaf in _search_raw(u.nbr, k)]
        hit = next((cl for _, cl in leaves if _admitted(cl, LEARN)), ({0}, {0}, {0}))
        filters = {
            "FILTER": FILTER,
            "singleton": tuple(frozenset(vals) for vals in hit),
            "two singletons": (frozenset(hit[0]), None, frozenset(hit[2])),
            "vacuous b": (None, frozenset(), None),
            "none": LEARN,
        }
        for lookahead in (False, True):
            learn = SearchStats()
            for _ in _search_raw(u.nbr, k, LEARN, None, learn, lookahead=lookahead):
                pass
            for label, sets in filters.items():
                stats = SearchStats()
                got = list(_search_raw(u.nbr, k, sets, None, stats, lookahead=lookahead))
                want = [leaf for leaf, cl in leaves if _admitted(cl, sets)]
                case = (name, rho, label, lookahead)
                assert got == want, case
                assert stats.nodes <= learn.nodes, case
