"""Byte-identical CLI stdout: SHA-256 digests of a fixed command set.

The digests pin the exact bytes each command writes, so any refactor
that changes the output, even by whitespace or key order, fails here.
The enumeration digests were recorded before the masks-first refactor
of `enumeration`, and the `extremal` digests before the construction
masks were rebuilt through `ChainProduct.mask_of`.  The last four,
which reach the flip tables at sizes the others do not (tssc and cssc
on the cube of side 8, tssc of side 10, a unit axis), were recorded
before those tables moved from `poset` into `metric`.  The four after
them (shells with k > r, k = r and a transposed one, and a d = 4
enumeration with no closed form) were recorded before the shape checks
moved into `poset`.  They must only change together with a deliberate
change to the output.
"""

import hashlib

import pytest

from scideals import cli

GOLDEN = {
    "count --dims 2,3,4":
        "cc69474df7d7065e99ecec87ccc59bf30ad7b77dd8050062ff85851382fcbdb9",
    "count --dims 6,6,6 --class tssc --format text":
        "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
    "enumerate --dims 2,3,4":
        "b770e73ef8f0ccadb901f355eac395771985a92a65da857fb0f788aef11264ee",
    "enumerate --dims 4,4":
        "792df5ec0603393ee0bd1467bb9a1d5f26b7a77d3738565df4503c26358ec650",
    "enumerate --dims 4,4,4 --class cssc --format heights":
        "21eeb1642be4f0100eb89d772a598496b86777e69ab18eaa9960098001c71a59",
    "enumerate --dims 6,6,6 --class tssc --format heights":
        "ea8833cfbd5ae1674414c781966baf9fd8836f0487c62d5e530c9516146e9e98",
    "stats --dims 2,3,4":
        "cc1b7a40e133a4a5db68a21e8b303706d1395f0f050aa78f96390e4a0400e349",
    "stats --dims 4,4 --format text":
        "9d9f77b8be29d92c3f657adebeba1cdcaa1d12b5ceda1e05100b11cfe848f97f",
    "stats --dims 6,6,6 --class tssc --format text":
        "f310f8055a77dff388ac9d5eeb3a3d0ad875255da276bc089fc36cd3f80bf33e",
    "stats --dims 4,4,4 --class cssc":
        "26e6bf1fa72fbf3469e59ba6ae9a2d902caec09b5d11b96f22f7e111c98d4f8e",
    "graph --dims 2,3,4":
        "ec5b0ad88cb46aca9aaa49fdb325f545332aea15a4fd05d1e730ebeb92f73feb",
    "graph --dims 4,4 --format json":
        "e046de8e683bc26b916be0fc65a90b71f06dcc07537869b324ecb507008723f7",
    "graph --dims 4,4,4 --class cssc --format json":
        "170816f61c607b60094aa3be4f44c7545de1797330f045e298efaa542171bf76",
    "graph --dims 6,6,6 --class tssc --format csv":
        "5c95a5b3548d2c5ab9eb768e705f761b5b039c67bc8838c8d4e288c0d0205fb3",
    "graph --dims 6,6,6 --class tssc --format dot":
        "8361a6b9a4a98cbbcc3bf086c0da5cd0e49e6263acb26ac34bababd87d9e596b",
    "extremal --name halfspace --dims 2,3,4 --axis 3":
        "4550e1c27fd03425c6c5b3b7abd64182155f2c0b7fedc90a2a0c4cb65691b146",
    "extremal --name sc-diameter-pair --dims 3,4,5":
        "8d293fee3748c434575448c3e8e9e72dba9a88709a21812757097203ad9d411e",
    "extremal --name majority --dims 2,4,6":
        "c157de0cec9852c7dc0f7684f1eeb34df1ac662fbf1e9d1f9382d38a9ab4089e",
    "extremal --name mod4-center --dims 4,6":
        "bfb8822b9ae23a713b3dba1ee1a18e955eeffd33824539fc80fa8707e6a4edb9",
    "extremal --name partitioned-center --dims 2,6,10":
        "2a5ffc8d77526d7b551c5a5d2e3b54f68ac0d60c6a1b357a1986db39e05a4fd5",
    "extremal --name partitioned-center --dims 3,5,8":
        "edb44fae61b5aa89be1f4696a6b9150b8d5b94f971b697ada369ba81e5d42486",
    "extremal --name c2r --r 3 --format heights":
        "db7e917413549310d31058bf74bd35cf3b6507f7057fa3e9ad3ced3b83c332c5",
    "extremal --name pyramid --r 3":
        "f880c0d8029596334167a86407148a82c7b4b23d80a1349a59b0c89e0cbe472c",
    "extremal --name octant --r 3 --format heights":
        "6ab8df2a63273be396c307dc1ea38af537926ef58d41476a48bed8a20aed8036",
    "extremal --name shell --r 3 --k 2":
        "8138fb1408b2c7e1022ad8f5c8415fdced5f76f1d55ec93823175712740f3de1",
    "extremal --name tssc-extremes --r 4":
        "41580e922a8f512e8693080e2b8b7829d74aeb6dedf11a878013613c6a243441",
    "graph --dims 8,8,8 --class tssc --format json":
        "793944f5371fe646f2b4b9793c4bd3fabbe91fc313e036192c36710cc75974d4",
    "graph --dims 8,8,8 --class cssc --format dot":
        "f9aa59f98b4c4d8220f176b7e4a6b80c28433ccd900100ca30fd4ccccc538dbf",
    "enumerate --dims 10,10,10 --class tssc --format heights":
        "93f11503f127bab4d45ed171e4735e4d57f1047cb509885da04499174f486aa6",
    "graph --dims 1,4,6 --format json":
        "cc1179819e8f977f6e0cad3e2519b66a2a5ac58f542d1f37367f0626d91b5302",
    "extremal --name shell --r 5 --k 7":
        "0220566c465e91ea6ad6fb5f31b5484f7999f64e12a28e31d9c76d6f3d05e802",
    "extremal --name shell --r 5 --k 5":
        "2fbbe3eb14fd0455a84f56892afb427402d16e4cf3ed9adedf2d88e100826b4b",
    "extremal --name shell --r 4 --k 1":
        "80415fd1f37d5f2a6bdc15bb3a2f359be12aeeafa31b33e6cb01b00e5df7be7b",
    "enumerate --dims 2,2,2,2":
        "7dcad8dc84f0e461e50adbc2de1a04bcc2ecf02cf049ce3b86a55dee17e934b5",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
