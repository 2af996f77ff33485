"""Byte-level pins on the classification and equivalence reports.

Every ``classify`` report for the four kinds at p = 2, n <= 6 and p = 3,
n <= 5, in both formats, must keep the sha256 below; a refactor of the
pipeline that changes a single byte of any report fails here.  The reports
run in-process, so the classification cache keeps the run cheap.

The ``equiv`` reports are pinned the same way, with their exit codes: every
non-printed row of tables 5-10 against its image under a fixed monomial map,
and one inequivalent pair per table.  The witness printed for an equivalent
pair is the first one the search finds, so these pins hold the search order.

The ``verify-tables`` reports are pinned with their exit codes on runs that
together reach every verdict branch: row checks of the known, corrected and
completed blocks, inequivalence, absent lengths, both skip texts and the
count tables.
"""

import hashlib
import random

from epcodes import MonomialMapEp, elements
from epcodes.cli import main
from epcodes.tables import load_table

REPORT_SHA256 = {
    ("lcd", 2, 1, "text"): "b5f6f1f9775f69214faf27f3dee00aa57d662738c95a9219985eaf6c4555bbce",
    ("lcd", 2, 1, "json"): "ef6dab9650774e2e008448508b14fd141c857c132dab1106240a10d9c6a7d3f2",
    ("lcd", 2, 2, "text"): "a391d622ad703064610b1e22343d00620aff3965a54790041ac9828eb2196dd8",
    ("lcd", 2, 2, "json"): "77bad503dba010fbc2959daf347f8f5a607abe9801676edead2c3f21550dbf72",
    ("lcd", 2, 3, "text"): "d0b4d43b97bbccb818851ebebcea6a99188ce3f16474ff7af478609cae2afbc5",
    ("lcd", 2, 3, "json"): "201d7bdcd0a6305dcf9a6d2662c912dd979041e5f61c800b6c5b4298bb4e0e29",
    ("lcd", 2, 4, "text"): "7ffdf2444c91547b46e6ae4e2c536b00b58aa83aa2d98cd88d47209400c9ffee",
    ("lcd", 2, 4, "json"): "7709fd177226e5d180a3eb84dfa51aab03c54716448377e3526ee8a40f991777",
    ("lcd", 2, 5, "text"): "98b19169cacbbec54a49e99c19d61bb8d72c57d6a828ff48221a9be1f9263c91",
    ("lcd", 2, 5, "json"): "dfb731f47ec4f15334845a3192ecfbd1f2701ba4070f2a63d708725749759afe",
    ("lcd", 2, 6, "text"): "1ab077a7f1a3f3cfde8e67abd6f319bf61f1b1dcc1f223bfad58af8c8652b42d",
    ("lcd", 2, 6, "json"): "ec4a25d10e5fd3e678ed1e911b61834f6b8b2d513343ef5bdc11468fc1eca999",
    ("lcd", 3, 1, "text"): "24f094db802fa3dcd939bcb8f95b39b703593694d85aabddc89316054bfb8add",
    ("lcd", 3, 1, "json"): "7f1934352fc05dcb51304343732051534ce9e268e49742602bbc858e4231189d",
    ("lcd", 3, 2, "text"): "778def7ecc45ba8463adb4eebceb757075647f5170504fd4769fbc3bfbf9b4e6",
    ("lcd", 3, 2, "json"): "2e8c5d4d38d659b93fbdd04b8af54d7a3a8e42210ceaf186490419f3da0e1b02",
    ("lcd", 3, 3, "text"): "b3d5761ca1082381ce6f29978e16b778dffa75e8c34e523ada737f03b29d6c1a",
    ("lcd", 3, 3, "json"): "6c0d807972da313e3bd470449c440098362e9a788baf1e71668a80510b0bf6a8",
    ("lcd", 3, 4, "text"): "09e4742532ce34399a67e449664c989d9505942ee6a533cd399ea6715485672a",
    ("lcd", 3, 4, "json"): "fa5a25294077204220a613ecb89fe93ea7d830393d57dcc0de5f1c38dcf9ce10",
    ("lcd", 3, 5, "text"): "f43e332bf311067e69f68b76a3031eb6ef895b31f93694b7a8a7ee8882d58e0b",
    ("lcd", 3, 5, "json"): "7d23f7a51ec4db74b962c5193eaba9c62f3dea93befaf498d9e18311d05d268c",
    ("mds-amds-lcd", 2, 1, "text"): "01536f76d2035092471ebfc2182cd92cba389a0c805c4cf6c554a47529c85ad4",
    ("mds-amds-lcd", 2, 1, "json"): "d7d9431b6e1580499d83fc91d09aac7579af2941386154eb792d70f2e6b600c3",
    ("mds-amds-lcd", 2, 2, "text"): "33856213f9ba263a1320c16d7f8c4ba95bf49705dcc07c2ddaae49dff3bd5be7",
    ("mds-amds-lcd", 2, 2, "json"): "4386a0a802b6fb41a603c0e0111a740d8c48d968ba72d506a6bc01c62cb3b525",
    ("mds-amds-lcd", 2, 3, "text"): "c9d6d234bbb631dd82ed776425a3837c208521b858cd428010794da7eb23b0b7",
    ("mds-amds-lcd", 2, 3, "json"): "545cd5b6d3692532a3041577b671cc8e714a4b10f20f9e1782b91b1bd7206082",
    ("mds-amds-lcd", 2, 4, "text"): "ce761320fdd2bfa765f8197f5a3888108f74395f7168ca219d324c63dfe3aa3b",
    ("mds-amds-lcd", 2, 4, "json"): "f55c5b4dea5a85962a9a29c4dde5ba8e2c713bb3a63d80d182adee16331b2509",
    ("mds-amds-lcd", 2, 5, "text"): "b1e34a2b1c5775c3f0cb83801c1c91444dca1955d475cf28d31516052158f043",
    ("mds-amds-lcd", 2, 5, "json"): "6187f1fb1db67a1fc68b2c1eab021c5722a01a508695fd6c027464052c97a5ab",
    ("mds-amds-lcd", 2, 6, "text"): "1907c5a1d364e76f2162f65a0a04d8f3018edb98d64b873c060dc47a1431053c",
    ("mds-amds-lcd", 2, 6, "json"): "b6ada64c20320d65d977253b08ca560c8b01d29001701b2f4b560bff3a8978a7",
    ("mds-amds-lcd", 3, 1, "text"): "1d67e5b4d01b61a7d8a09a507c87819eb224770a51d3778ddb82dbb0c6f8095c",
    ("mds-amds-lcd", 3, 1, "json"): "7ce298ac8375f03f27306d79638c3524c59f060d2e3170c8f61499bb23cab0f3",
    ("mds-amds-lcd", 3, 2, "text"): "a38461a8fa594179a54da7e4c00955abbdb441b15bb9105cecd229ac84bef5a2",
    ("mds-amds-lcd", 3, 2, "json"): "6e31e1ce187462110badb923659a0ddca0d8b36153b49979c0849b6997c9049f",
    ("mds-amds-lcd", 3, 3, "text"): "7a1c741dd8e7699c0d3708e911619a15948705b64c7b79e8918665699949b987",
    ("mds-amds-lcd", 3, 3, "json"): "c995aaae1bef1524f6b0c4463ac850abc3d7fef6fc582a30943a7a5cfe596a44",
    ("mds-amds-lcd", 3, 4, "text"): "4517d225da150421afb97131e29aa8d4b33489b0df9c79524e3df62dd8808af4",
    ("mds-amds-lcd", 3, 4, "json"): "c8b92ec75761eb48213e19b17e59ad08f3d26516e7e19a37313106b68f96d527",
    ("mds-amds-lcd", 3, 5, "text"): "dbb782b858bd4226952af0968b62e64b3a50f5a209ef1ffa26adf1867079891d",
    ("mds-amds-lcd", 3, 5, "json"): "3d2994fe63fff0b925618b647ccbb9b79aad06200513ad620bf9033527121b7e",
    ("left-self-dual", 2, 1, "text"): "9f6f43c5d7cb07e42a6a796df4e1314afe4af35cdc36cd6d1b340bb059a0e70f",
    ("left-self-dual", 2, 1, "json"): "3fae2c3cb22b623dc174d32be2df9b9b7b6cb76c4f5c232cf21a6e111dd08416",
    ("left-self-dual", 2, 2, "text"): "537569b906c17fb6ce0b73e9dea0bb79d34cc7132ab4290b4d98ffce8ed1a338",
    ("left-self-dual", 2, 2, "json"): "3de554ce5fe3fa8de028661659cd6878872ecf4994228259ee2a899aad8ca07f",
    ("left-self-dual", 2, 3, "text"): "62643cfa6ca02243d55e848824fec2808cecf4ebd63990c613f68cce8d56fd4e",
    ("left-self-dual", 2, 3, "json"): "c68b6666aadaa3d63275814223c41a69e27ef4f6b8502d3317e9c5ddb3ee91a0",
    ("left-self-dual", 2, 4, "text"): "bdc1eeff674a640a4e6d5024134104b5a9b8e3411a7bb93bb405548258ee49a8",
    ("left-self-dual", 2, 4, "json"): "677ec07a5e1e1a18018839e1dbcf2ca88a20adc7ab3f3c37fc7676b083e9c9ee",
    ("left-self-dual", 2, 5, "text"): "c6214fd93c446e3a4107c2674007d20d6f8ab1644a52ed874e3c2d7678bbcd9c",
    ("left-self-dual", 2, 5, "json"): "70cdbcf2deca021daf3f80607f95d1b00c69e02bb5d052444906b6f3974bc97e",
    ("left-self-dual", 2, 6, "text"): "8a10189f17b529e5a24b9c158f28639282ce13c753683efc02148c599f029a54",
    ("left-self-dual", 2, 6, "json"): "2e3a76784d14417fab61bd9d796596e8fdecbd28c5cb09d11136a70e682f99e9",
    ("left-self-dual", 3, 1, "text"): "12b7626bb62fb721dfa05ab390fd8ce2944901692914bdc11a3c6fb7b081aaaf",
    ("left-self-dual", 3, 1, "json"): "2a738a92c1f0f5cd1dc38d1f94a6c7a54c56b1a679ecde9c8e79a08097cb7731",
    ("left-self-dual", 3, 2, "text"): "2a31807a8054b953ef8dddb02c86121355231fae3daac14581327504e35447e8",
    ("left-self-dual", 3, 2, "json"): "b4293273ea8afe1ac5454721a505c771b3c5dab52c240686fd3138ebcae60bd8",
    ("left-self-dual", 3, 3, "text"): "cef7e21636ecb482a4604dd7ef31a73686219092b8453ce5ba23428331036274",
    ("left-self-dual", 3, 3, "json"): "10b8c77408a5cb2ff25734004df6aca22c70efefdad5c2c83d832b84126585af",
    ("left-self-dual", 3, 4, "text"): "58de69e30128ef524d38053586d8b6277bf6a972e485d4840d0a843c836516f4",
    ("left-self-dual", 3, 4, "json"): "90b6e0890576e89c7e5fab20af81d700c7197e62958b58f7e5634210e72269fb",
    ("left-self-dual", 3, 5, "text"): "bef208369012e810e364ff7a1ab56814a3c83d89fd74f9e20f7494604a44494a",
    ("left-self-dual", 3, 5, "json"): "99fe1a10957c567b17e85424f67bb3e4e67b1f55badfd07a9acc7655c0f4affd",
    ("self-dual", 2, 1, "text"): "fb8a8776c817e43969a12211600619fbae9cbc81f40fd9d6f6006429d911e851",
    ("self-dual", 2, 1, "json"): "55dee0b99584ec07790e4bccd47725b5d8c5fe407f547917316349df19c98eae",
    ("self-dual", 2, 2, "text"): "057efa98e87caa13859fb496a599f6f87b37e894c4f924fead9a28641bb48d90",
    ("self-dual", 2, 2, "json"): "9edc0c3fed985eb5e977c33a7e0c8df7b3041c6f7bd2abea0e699f029036699b",
    ("self-dual", 2, 3, "text"): "dc2cdd873d422dfa3cdc32e3e6ccd7015cbcd334bfa9bf0c0f5d6dd8d6b37715",
    ("self-dual", 2, 3, "json"): "47b768b53d0d8f3438503c8f456ecbacb729d797d7235bbf1245035679686cf3",
    ("self-dual", 2, 4, "text"): "452c513ab9206c9ea9863391072dd8e996bd1a6bd11a2614f2571bfe74c5b125",
    ("self-dual", 2, 4, "json"): "465ca29a47fde1110aec73f678113e96316f9d8ee45862e8a54634b86c006532",
    ("self-dual", 2, 5, "text"): "89eafbd1d2394f3c938bd02acbee6575f435a66835c57c296926445fcbf6c8c4",
    ("self-dual", 2, 5, "json"): "a7aa30a4c0d9702b77980c56ebf9da10c8b39aebae415d28feae47ef7b55d910",
    ("self-dual", 2, 6, "text"): "fbd5b9dd884d3a329b590044a8274a38a65b071ae090f035b4f72d5e4d2d8d3a",
    ("self-dual", 2, 6, "json"): "4f47de0b3438aafdab81fa9a44ee79b166b4adb4496b46eff9753f53bd0fc495",
    ("self-dual", 3, 1, "text"): "3b9712f953a3c5366f54e2807ccb67bdf482bf06f158090d16ae874dc1c3ee35",
    ("self-dual", 3, 1, "json"): "9fe1f2594fb773b6f27a6ee29b4990155ca137f868ee7b98c59e2c5c8f6c80ab",
    ("self-dual", 3, 2, "text"): "ba7a9cebbb07e79c97eb1ae3b32306d87a726d1933f2dd7cf060c35d435e8fe6",
    ("self-dual", 3, 2, "json"): "c0123ccf0d9fd314b9fed5e02aafd4660d35790dace0251dcb6bc7636ed1b0df",
    ("self-dual", 3, 3, "text"): "15068654371a7db19fe49172b0fcf8fdee938c195bdb88acff1df1bdc429837a",
    ("self-dual", 3, 3, "json"): "f1375c1e0af18363f416075861f1f24faa2fa4008d9f15debbc8b2c6b72f9139",
    ("self-dual", 3, 4, "text"): "f5f7bf00d5d6da376783162ebc32597cab8244359d93de9a940be281dddecd12",
    ("self-dual", 3, 4, "json"): "747da964ddd49c2963aeac7395b115addc3a94882d3019a9efe0ca2cbcabce93",
    ("self-dual", 3, 5, "text"): "c9966602c203943c87e9aa5a85f26bc16383470e8f2d1d4c56a23c046f8f67fd",
    ("self-dual", 3, 5, "json"): "8679c5a9ae81aef1fdf67c99709763b1ea5b68d5e72669f88f096b56f302fe42",
}


def test_classify_reports_keep_their_bytes(capsys):
    got = {}
    for kind, p, n, fmt in REPORT_SHA256:
        argv = ["classify", kind, "--p", str(p), "--n", str(n), "--format", fmt]
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        got[kind, p, n, fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert got == REPORT_SHA256


# one inequivalent pair per table: (table, row) against (table, row); a table
# without two rows of one length borrows a row of that length from table 6
INEQUIVALENT_PAIRS = {
    5: ((5, "n=2 #1"), (5, "n=2 #2")),
    6: ((6, "n=2 #1"), (6, "n=2 #2")),
    7: ((7, "n=8 #1 (printed)"), (7, "n=8 #2 (corrected)")),
    8: ((8, "n=4 #1"), (6, "n=4 #1")),
    9: ((9, "n=4 #1"), (9, "n=4 #2")),
    10: ((10, "n=2 #1"), (6, "n=2 #1")),
}


def _fixed_map(p, n):
    """A seeded permutation, with the scales cycling through the units."""
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    units = [e for e in elements(p) if e.alpha]
    return MonomialMapEp(p, tuple(perm), tuple(units[i % len(units)] for i in range(n)))


def _equiv_pairs():
    """(key, first matrix text, second matrix text, extra argv) per report.

    A row beyond the default search budget runs twice: refused as is, and
    decided with ``--max-n`` raised to its length.
    """
    rows = {(t, row.label): row for t in range(5, 11) for row in load_table(t).rows}
    for (t, label), row in rows.items():
        if row.variant == "printed":
            continue
        m = row.matrix
        image = _fixed_map(m.p, m.n).apply(m.code()).generator_matrix().to_text()
        yield (t, label, "image"), m.to_text(), image, []
        if m.n > 10:
            yield (t, label, f"image --max-n {m.n}"), m.to_text(), image, ["--max-n", str(m.n)]
    for t, (first, second) in INEQUIVALENT_PAIRS.items():
        against = f"table {second[0]} {second[1]}"
        yield (t, first[1], against), rows[first].matrix.to_text(), rows[second].matrix.to_text(), []


def _equiv_reports(tmp_path, capsys):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    got = {}
    for key, text1, text2, extra in _equiv_pairs():
        first.write_text(text1)
        second.write_text(text2)
        for fmt in ("text", "json"):
            code = main(["equiv", str(first), str(second), "--format", fmt, *extra])
            out = capsys.readouterr().out
            got[key + (fmt,)] = (code, hashlib.sha256(out.encode()).hexdigest())
    return got


# generated before the search core was rewritten; keys are (table, row,
# second code, format), values (exit code, sha256 of stdout)
EQUIV_REPORTS = {
    (5, 'n=1 #1', 'image', 'text'): (0, '68111dfd4227555827595767636bb87a4d764c947353fd47c4010f725a592e95'),
    (5, 'n=1 #1', 'image', 'json'): (0, 'e778c8b44b4d81bd8c701094e1f5306ae68e94a0cd501036c88c75e514921c19'),
    (5, 'n=2 #1', 'image', 'text'): (0, '5c59e715caf5a600b5a8193c19d454faac08c65085b23c8c15fbd790143f6298'),
    (5, 'n=2 #1', 'image', 'json'): (0, '291f0dd9a7cceadbd9d333c02ead4498890ee2b8dfdc42d6c7b00a0cdb30a5ee'),
    (5, 'n=2 #2', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (5, 'n=2 #2', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (5, 'n=3 #1', 'image', 'text'): (0, '275c87d8cbece9486339f9042bde82c8e9e1435cba784a8725626800869cf1a0'),
    (5, 'n=3 #1', 'image', 'json'): (0, '975c6bf44df640f5167d0ebebb7c17738eb77c414c1b62ce364489a0da697967'),
    (5, 'n=3 #2', 'image', 'text'): (0, '275c87d8cbece9486339f9042bde82c8e9e1435cba784a8725626800869cf1a0'),
    (5, 'n=3 #2', 'image', 'json'): (0, '975c6bf44df640f5167d0ebebb7c17738eb77c414c1b62ce364489a0da697967'),
    (5, 'n=3 #3', 'image', 'text'): (0, '79fe45b5f08e47df6753d5c32d95a9e8c23ca2423de6722fd229a8ae6b8c6d61'),
    (5, 'n=3 #3', 'image', 'json'): (0, '0e541665bff0ac74f9c0c83dff29577a70a5cdb66339507b7cd9d9478657fe98'),
    (5, 'n=3 #4', 'image', 'text'): (0, '275c87d8cbece9486339f9042bde82c8e9e1435cba784a8725626800869cf1a0'),
    (5, 'n=3 #4', 'image', 'json'): (0, '975c6bf44df640f5167d0ebebb7c17738eb77c414c1b62ce364489a0da697967'),
    (5, 'n=4 #1', 'image', 'text'): (0, '17d437a02bc32de38ed62545efa25b9e5ac4d9274e05d3e3c11e66d390ae5a2c'),
    (5, 'n=4 #1', 'image', 'json'): (0, '35a700ca433cce56223d9aaa4fd0dd6eae46070de367f88c7ead3dcbca2b8d30'),
    (5, 'n=4 #2', 'image', 'text'): (0, 'bea28517bc72e655629239d2b04608027e496e3d2bccad064e72c2eb80630941'),
    (5, 'n=4 #2', 'image', 'json'): (0, '56518dadda61257aaa41df12b762a51a5fd9e38f773bd54da920536368ac005c'),
    (5, 'n=4 #3', 'image', 'text'): (0, 'a31b82abb7773a9fa927305bbcbe8342453889ef8f59ccad38665f1f2f4d6f75'),
    (5, 'n=4 #3', 'image', 'json'): (0, '47b89c209ed9a8c4e788503164763eb6ee109c71a2f0a62a9d22081332c7bc2a'),
    (5, 'n=4 #4', 'image', 'text'): (0, 'c0b65bf437055b48f4d80a09ce7eca132a64089a1f90e11100ca91f4efc88def'),
    (5, 'n=4 #4', 'image', 'json'): (0, '746da80a50bd0f1ead0a2816c604072009b9d03680050e1903552fc5f8ab6cd7'),
    (5, 'n=4 #5', 'image', 'text'): (0, '17d437a02bc32de38ed62545efa25b9e5ac4d9274e05d3e3c11e66d390ae5a2c'),
    (5, 'n=4 #5', 'image', 'json'): (0, '35a700ca433cce56223d9aaa4fd0dd6eae46070de367f88c7ead3dcbca2b8d30'),
    (5, 'n=4 #6', 'image', 'text'): (0, '1b13645e3d73164fa7d1a3ff3bebacf08edaec9eea774aa3b2491a024478e0c5'),
    (5, 'n=4 #6', 'image', 'json'): (0, 'c38ae23d0e12ae01af54a0eeab55dddfedb5ef3785423292bbb00c9fad94bcd0'),
    (5, 'n=5 #1', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (5, 'n=5 #1', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (5, 'n=5 #2', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (5, 'n=5 #2', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (5, 'n=5 #3', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (5, 'n=5 #3', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (5, 'n=5 #4', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (5, 'n=5 #4', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (5, 'n=5 #5', 'image', 'text'): (0, '35864b96ff43ca838a50ff23140200bab2878f79f93aa3c9cb73cc9bb3d8e181'),
    (5, 'n=5 #5', 'image', 'json'): (0, '517e935d3e14fd7a31cb1896b4db9abc3b5e0769d666dc387732e57c69a149d8'),
    (5, 'n=5 #6', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (5, 'n=5 #6', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (5, 'n=6 #1', 'image', 'text'): (0, '126567a08a71fa89a06a545aa4c3329b8808fba045134ec196bf6ba7fc5ae61a'),
    (5, 'n=6 #1', 'image', 'json'): (0, '158171e60f31b7cf6c9aee49b07bff5e254bdf0222431893d55873bcd4e5b006'),
    (5, 'n=6 #2', 'image', 'text'): (0, 'bd5e4c31ded8cd08f243d8008c20fad4ac73d8d55ec600a2a603d59de3e3169b'),
    (5, 'n=6 #2', 'image', 'json'): (0, '901fd3d518f364d0a095e83a8d07caa1c3cfd82e4e36f537e8e7d03687a85c23'),
    (5, 'n=6 #3', 'image', 'text'): (0, '3de8f812a91a1b636554579ca321ec2335073d3672707345eceef036a5d9b817'),
    (5, 'n=6 #3', 'image', 'json'): (0, '176fe2847cacd6f7b16fa4e6376d1e5ea2a1ff0f6da1f179ddac677e1a6ac6d6'),
    (5, 'n=6 #4', 'image', 'text'): (0, 'c90697971b291eca5a9da10ce78d3c11d87ee67a70402d6425a0c3ace303b34b'),
    (5, 'n=6 #4', 'image', 'json'): (0, 'cd70bbf591cd3f6ef5c6b1e5a726ba25d351208a5578c83225384c9ac2b05907'),
    (5, 'n=6 #5', 'image', 'text'): (0, '3de8f812a91a1b636554579ca321ec2335073d3672707345eceef036a5d9b817'),
    (5, 'n=6 #5', 'image', 'json'): (0, '176fe2847cacd6f7b16fa4e6376d1e5ea2a1ff0f6da1f179ddac677e1a6ac6d6'),
    (5, 'n=6 #6', 'image', 'text'): (0, '126567a08a71fa89a06a545aa4c3329b8808fba045134ec196bf6ba7fc5ae61a'),
    (5, 'n=6 #6', 'image', 'json'): (0, '158171e60f31b7cf6c9aee49b07bff5e254bdf0222431893d55873bcd4e5b006'),
    (5, 'n=6 #7', 'image', 'text'): (0, '3de8f812a91a1b636554579ca321ec2335073d3672707345eceef036a5d9b817'),
    (5, 'n=6 #7', 'image', 'json'): (0, '176fe2847cacd6f7b16fa4e6376d1e5ea2a1ff0f6da1f179ddac677e1a6ac6d6'),
    (5, 'n=6 #8', 'image', 'text'): (0, '60b85ec42f09032bbd5e1d0b622ddcb8352d5bf8965b294b472a46b39e04b9bf'),
    (5, 'n=6 #8', 'image', 'json'): (0, '5eed7427dd87a4a363642a2af85614bb5f2cd5cf06f017b0f739b3f18590c33b'),
    (5, 'n=6 #9', 'image', 'text'): (0, '7d2b662b00ab58ffff0f4268e2a830b22f9691b645cfd8e560e27d4c74ef7a60'),
    (5, 'n=6 #9', 'image', 'json'): (0, '86fa37a432de9b84aac953144517404677db8be785f67611793ee1d538a9a93d'),
    (6, 'n=1 #1', 'image', 'text'): (0, '68111dfd4227555827595767636bb87a4d764c947353fd47c4010f725a592e95'),
    (6, 'n=1 #1', 'image', 'json'): (0, 'e778c8b44b4d81bd8c701094e1f5306ae68e94a0cd501036c88c75e514921c19'),
    (6, 'n=2 #1', 'image', 'text'): (0, '30d6543c688ffc0ec22d502ca305d77eb8ec8d8c1eb8dd093441c5088366117f'),
    (6, 'n=2 #1', 'image', 'json'): (0, '3586d78cc1cf96d51823dde588a9070927d08833deb8f25d5c1b83cf3db2e308'),
    (6, 'n=2 #2', 'image', 'text'): (0, '5c59e715caf5a600b5a8193c19d454faac08c65085b23c8c15fbd790143f6298'),
    (6, 'n=2 #2', 'image', 'json'): (0, '291f0dd9a7cceadbd9d333c02ead4498890ee2b8dfdc42d6c7b00a0cdb30a5ee'),
    (6, 'n=2 #3', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (6, 'n=2 #3', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (6, 'n=3 #1', 'image', 'text'): (0, '683ae3166148595709919523f4df81f191c6947e11053bfc38e3ec885c73f84b'),
    (6, 'n=3 #1', 'image', 'json'): (0, 'a5b2408d503f3d1734faa22f86cc18342b887439769b859282d70ddefc634a70'),
    (6, 'n=3 #2 (completed)', 'image', 'text'): (0, '683ae3166148595709919523f4df81f191c6947e11053bfc38e3ec885c73f84b'),
    (6, 'n=3 #2 (completed)', 'image', 'json'): (0, 'a5b2408d503f3d1734faa22f86cc18342b887439769b859282d70ddefc634a70'),
    (6, 'n=3 #3', 'image', 'text'): (0, '79fe45b5f08e47df6753d5c32d95a9e8c23ca2423de6722fd229a8ae6b8c6d61'),
    (6, 'n=3 #3', 'image', 'json'): (0, '0e541665bff0ac74f9c0c83dff29577a70a5cdb66339507b7cd9d9478657fe98'),
    (6, 'n=3 #4', 'image', 'text'): (0, '275c87d8cbece9486339f9042bde82c8e9e1435cba784a8725626800869cf1a0'),
    (6, 'n=3 #4', 'image', 'json'): (0, '975c6bf44df640f5167d0ebebb7c17738eb77c414c1b62ce364489a0da697967'),
    (6, 'n=4 #1', 'image', 'text'): (0, '734dab002407a837b6e097d5e20f24ae3b4335e4b1fdaef91d4858f996a3fc00'),
    (6, 'n=4 #1', 'image', 'json'): (0, '846d6efe9367d8de49e15c2d8fedbc0d5e92c711d1681ba6d38d4dcc515b494b'),
    (6, 'n=4 #2', 'image', 'text'): (0, '244b03c3767c4752975f1ce568afaf45bc6f14fbaceb358d435db7e00f796f7a'),
    (6, 'n=4 #2', 'image', 'json'): (0, '20e09e0b2c536ce6201dcf0767c888ceb8c655ab8f81a055f9271020c3b6ae8d'),
    (6, 'n=4 #3', 'image', 'text'): (0, '24e7251f679a46e59bbbbefc7739a71f052ecb702a9c544e8b0dbc2362fda7cd'),
    (6, 'n=4 #3', 'image', 'json'): (0, '989f761737bb205319e25e2a547a4771c85c409ca3db34a5c6ceeb4503144eb9'),
    (6, 'n=4 #4', 'image', 'text'): (0, '4ec5f407e915d5d2c7d1c194b444a12b3ce97ffce31acdbfb3a0b8386ab49e94'),
    (6, 'n=4 #4', 'image', 'json'): (0, '5c28cedbd9d09db416b64308db06b962d7da2f0f871cc452725cb8593dd999d3'),
    (6, 'n=4 #5', 'image', 'text'): (0, '734dab002407a837b6e097d5e20f24ae3b4335e4b1fdaef91d4858f996a3fc00'),
    (6, 'n=4 #5', 'image', 'json'): (0, '846d6efe9367d8de49e15c2d8fedbc0d5e92c711d1681ba6d38d4dcc515b494b'),
    (6, 'n=4 #6', 'image', 'text'): (0, 'c0b65bf437055b48f4d80a09ce7eca132a64089a1f90e11100ca91f4efc88def'),
    (6, 'n=4 #6', 'image', 'json'): (0, '746da80a50bd0f1ead0a2816c604072009b9d03680050e1903552fc5f8ab6cd7'),
    (6, 'n=4 #7', 'image', 'text'): (0, '1b13645e3d73164fa7d1a3ff3bebacf08edaec9eea774aa3b2491a024478e0c5'),
    (6, 'n=4 #7', 'image', 'json'): (0, 'c38ae23d0e12ae01af54a0eeab55dddfedb5ef3785423292bbb00c9fad94bcd0'),
    (6, 'n=5 #1', 'image', 'text'): (0, '0c173f94e1b96c4375aa6e26c4920d09a2a01e56906bb655fde66667013d9b85'),
    (6, 'n=5 #1', 'image', 'json'): (0, '24cb7508d17074634d3f77e8641ce846981686c9a4ca8af1f004970a8db1f263'),
    (6, 'n=5 #2', 'image', 'text'): (0, '5d0e98303c8ac8cf789f5834a03c2d2374bb735081a47df720b171ff41ab9149'),
    (6, 'n=5 #2', 'image', 'json'): (0, 'e627b5d4a4b0b388ea545d279b6e8fd6378f0f62bd6fc0f6834cc6eb7b473bf2'),
    (6, 'n=5 #3', 'image', 'text'): (0, '5d0e98303c8ac8cf789f5834a03c2d2374bb735081a47df720b171ff41ab9149'),
    (6, 'n=5 #3', 'image', 'json'): (0, 'e627b5d4a4b0b388ea545d279b6e8fd6378f0f62bd6fc0f6834cc6eb7b473bf2'),
    (6, 'n=5 #4', 'image', 'text'): (0, '7027d596b2cf2ffafd99af0990abcfff56a511c485e43203c71e44bda170cf8e'),
    (6, 'n=5 #4', 'image', 'json'): (0, '26e7e287e0fc1effdf3aad2fc852d4246f3427487abb101ece648ce6a22865e6'),
    (6, 'n=5 #5', 'image', 'text'): (0, '5d0e98303c8ac8cf789f5834a03c2d2374bb735081a47df720b171ff41ab9149'),
    (6, 'n=5 #5', 'image', 'json'): (0, 'e627b5d4a4b0b388ea545d279b6e8fd6378f0f62bd6fc0f6834cc6eb7b473bf2'),
    (6, 'n=5 #6', 'image', 'text'): (0, '5d0e98303c8ac8cf789f5834a03c2d2374bb735081a47df720b171ff41ab9149'),
    (6, 'n=5 #6', 'image', 'json'): (0, 'e627b5d4a4b0b388ea545d279b6e8fd6378f0f62bd6fc0f6834cc6eb7b473bf2'),
    (6, 'n=5 #7', 'image', 'text'): (0, '0c173f94e1b96c4375aa6e26c4920d09a2a01e56906bb655fde66667013d9b85'),
    (6, 'n=5 #7', 'image', 'json'): (0, '24cb7508d17074634d3f77e8641ce846981686c9a4ca8af1f004970a8db1f263'),
    (6, 'n=5 #8', 'image', 'text'): (0, '5d0e98303c8ac8cf789f5834a03c2d2374bb735081a47df720b171ff41ab9149'),
    (6, 'n=5 #8', 'image', 'json'): (0, 'e627b5d4a4b0b388ea545d279b6e8fd6378f0f62bd6fc0f6834cc6eb7b473bf2'),
    (6, 'n=5 #9', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (6, 'n=5 #9', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (6, 'n=5 #10', 'image', 'text'): (0, '46b9c44cd2db9f1a9ff88622cc48ceb2ea275143559a9c2b77928dd8a8231f17'),
    (6, 'n=5 #10', 'image', 'json'): (0, '34606073dc299c7421ab60739aae1eb6e5ce27e8375cc39ac5b001fdd04f029c'),
    (6, 'n=5 #11', 'image', 'text'): (0, '69187358b1c8fd1ab055db12bc50317f6e16c2bc1936291e148b594465fa8192'),
    (6, 'n=5 #11', 'image', 'json'): (0, '14561fb12caf41e86cf58e3b60046f2ec652ef6a01bbff52ea6ebcea3e3a7501'),
    (6, 'n=6 #1', 'image', 'text'): (0, '96226cfb94d58dca20a9e772ec2325cac68818efdc69134a27202dae7ae89885'),
    (6, 'n=6 #1', 'image', 'json'): (0, '6065878b88a25b7ffec1c6b6c46f0240aee70dccb334ca1824a2d8d20775940f'),
    (6, 'n=6 #2', 'image', 'text'): (0, '111ce4462279a18662c820186c32815b7a75633b9242b874c9444a4ae142125f'),
    (6, 'n=6 #2', 'image', 'json'): (0, 'b4fe041f7c1fad74c3bd172158418836104c2494e056a584e6f6f172101e8289'),
    (6, 'n=6 #3', 'image', 'text'): (0, 'a311bc5c561e7a39b1a3ce4706a85c1a2b6e27b66e1f51a4fceb80ed9628fef8'),
    (6, 'n=6 #3', 'image', 'json'): (0, '3d4c9dee0573bd87438b21ac33edf4e50d6d3ec3a66ca99173c0dd53d38e1a20'),
    (6, 'n=6 #4', 'image', 'text'): (0, 'cf8366e2ee10ee816eb08190e61ceb18c7cabb3a5e45cefb4f1dae373e12d5f4'),
    (6, 'n=6 #4', 'image', 'json'): (0, '17f41951fa9975fd5c367f9a93c60ef7c981178386eb0d5deb31a3a7fdbdf585'),
    (6, 'n=6 #5', 'image', 'text'): (0, '281fb97a591d153f11b4a810863e71faa756badff977122663a3bec587701629'),
    (6, 'n=6 #5', 'image', 'json'): (0, '1baaeddcc06e6993a6c4fdd9595e3f15bd2f501fde4b5932655bfe64f410a96d'),
    (6, 'n=6 #6', 'image', 'text'): (0, '111ce4462279a18662c820186c32815b7a75633b9242b874c9444a4ae142125f'),
    (6, 'n=6 #6', 'image', 'json'): (0, 'b4fe041f7c1fad74c3bd172158418836104c2494e056a584e6f6f172101e8289'),
    (6, 'n=6 #7', 'image', 'text'): (0, '07532b4fbd2a2669ade244f641657b331fde9218f300e1af99abf3b2478f4397'),
    (6, 'n=6 #7', 'image', 'json'): (0, 'a7078b518b7d3b660e81e6c9149e6dc079c450fa6d8d1d4e795521205fcee25e'),
    (6, 'n=6 #8', 'image', 'text'): (0, '1d61770bca36cb9b42d30357f627e18fd1f2746fbc239182d9a88620ff1e0cbf'),
    (6, 'n=6 #8', 'image', 'json'): (0, '9a8830932f58cc3a42fb7f8349da62473d0c556903e474208e61efd3d1831b51'),
    (6, 'n=6 #9', 'image', 'text'): (0, 'e6d231f50edd25db5c1e0ae19faa548088887c60d6c1ff8dadc7de2a134fce6e'),
    (6, 'n=6 #9', 'image', 'json'): (0, 'a600a4bd261d090f19cc0bdf907652d28a4c636b5c2790161f33cecfea533aaf'),
    (6, 'n=6 #10', 'image', 'text'): (0, '5a218f539f0222b2c75e23d91472c0ef56688014c8a599cb69d8750b49cfa13d'),
    (6, 'n=6 #10', 'image', 'json'): (0, '3e2d77802b39a0ed7228dbcf8fdffaf50ed342f007da428c7bab90f9e07ba368'),
    (6, 'n=6 #11', 'image', 'text'): (0, '96226cfb94d58dca20a9e772ec2325cac68818efdc69134a27202dae7ae89885'),
    (6, 'n=6 #11', 'image', 'json'): (0, '6065878b88a25b7ffec1c6b6c46f0240aee70dccb334ca1824a2d8d20775940f'),
    (6, 'n=6 #12', 'image', 'text'): (0, '3de8f812a91a1b636554579ca321ec2335073d3672707345eceef036a5d9b817'),
    (6, 'n=6 #12', 'image', 'json'): (0, '176fe2847cacd6f7b16fa4e6376d1e5ea2a1ff0f6da1f179ddac677e1a6ac6d6'),
    (6, 'n=6 #13', 'image', 'text'): (0, '7d2b662b00ab58ffff0f4268e2a830b22f9691b645cfd8e560e27d4c74ef7a60'),
    (6, 'n=6 #13', 'image', 'json'): (0, '86fa37a432de9b84aac953144517404677db8be785f67611793ee1d538a9a93d'),
    (7, 'n=2 #1', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (7, 'n=2 #1', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (7, 'n=4 #1', 'image', 'text'): (0, 'bea28517bc72e655629239d2b04608027e496e3d2bccad064e72c2eb80630941'),
    (7, 'n=4 #1', 'image', 'json'): (0, '56518dadda61257aaa41df12b762a51a5fd9e38f773bd54da920536368ac005c'),
    (7, 'n=8 #2 (corrected)', 'image', 'text'): (0, '3d1ea412b3822d36e5c9af6b47cc7c535d67d5bdc3e69d253e359fd9bf5d2c77'),
    (7, 'n=8 #2 (corrected)', 'image', 'json'): (0, '06d6cf81b72e3006f1ce6b3bbc278ab2de9240b9a2238ca129a149528c3120f5'),
    (8, 'n=4 #1', 'image', 'text'): (0, 'a31b82abb7773a9fa927305bbcbe8342453889ef8f59ccad38665f1f2f4d6f75'),
    (8, 'n=4 #1', 'image', 'json'): (0, '47b89c209ed9a8c4e788503164763eb6ee109c71a2f0a62a9d22081332c7bc2a'),
    (8, 'n=12 #1', 'image', 'text'): (5, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (8, 'n=12 #1', 'image', 'json'): (5, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (8, 'n=12 #1', 'image --max-n 12', 'text'): (0, '4dbcdd9d2250c0119b02fb1e7726159657c6776c18dcdfa08882e81fc37ec145'),
    (8, 'n=12 #1', 'image --max-n 12', 'json'): (0, '2d4b150a02bb152f0b36fc40765b0b803ebc17565311f8d8e10ad2692b7d60fe'),
    (9, 'n=2 #1', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (9, 'n=2 #1', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (9, 'n=2 #2', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (9, 'n=2 #2', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (9, 'n=4 #1', 'image', 'text'): (0, 'bea28517bc72e655629239d2b04608027e496e3d2bccad064e72c2eb80630941'),
    (9, 'n=4 #1', 'image', 'json'): (0, '56518dadda61257aaa41df12b762a51a5fd9e38f773bd54da920536368ac005c'),
    (9, 'n=4 #2', 'image', 'text'): (0, '1b13645e3d73164fa7d1a3ff3bebacf08edaec9eea774aa3b2491a024478e0c5'),
    (9, 'n=4 #2', 'image', 'json'): (0, 'c38ae23d0e12ae01af54a0eeab55dddfedb5ef3785423292bbb00c9fad94bcd0'),
    (10, 'n=2 #1', 'image', 'text'): (0, '8fffcebc2ae21f6df4137179652e803f761b36622a8a863471185bb16cabbb0d'),
    (10, 'n=2 #1', 'image', 'json'): (0, 'b62b72c68c1aa07b5ef24daed4555342ae8c914539b6dff36e740cf8c54f4428'),
    (10, 'n=4 #1', 'image', 'text'): (0, '2b72b0c272655700b2cb478bdbc8f023a0db7d5de720a09cca2707571f14b99b'),
    (10, 'n=4 #1', 'image', 'json'): (0, '091e07c3e031adbcfe6d7dea5f9bd84b811b791cbb50e2eef78276d9426021dd'),
    (5, 'n=2 #1', 'table 5 n=2 #2', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (5, 'n=2 #1', 'table 5 n=2 #2', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
    (6, 'n=2 #1', 'table 6 n=2 #2', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (6, 'n=2 #1', 'table 6 n=2 #2', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
    (7, 'n=8 #1 (printed)', 'table 7 n=8 #2 (corrected)', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (7, 'n=8 #1 (printed)', 'table 7 n=8 #2 (corrected)', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
    (8, 'n=4 #1', 'table 6 n=4 #1', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (8, 'n=4 #1', 'table 6 n=4 #1', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
    (9, 'n=4 #1', 'table 9 n=4 #2', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (9, 'n=4 #1', 'table 9 n=4 #2', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
    (10, 'n=2 #1', 'table 6 n=2 #1', 'text'): (1, '964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37'),
    (10, 'n=2 #1', 'table 6 n=2 #1', 'json'): (1, '32d51fdd30cce5f28ecf3ec2859831b5cbfcabc9041b8ab5909af5af187856cc'),
}


def test_equiv_reports_keep_their_bytes_and_exit_codes(tmp_path, capsys):
    assert _equiv_reports(tmp_path, capsys) == EQUIV_REPORTS


# keys are (verify-tables arguments, format), values (exit code, sha256 of
# stdout); --strict fails on the known Table 7 defect with unchanged bytes
VERIFY_REPORTS = {
    ("--max-n 5", "text"): (0, "172c4fd363e682b3c13c9a6c53a632d5014095991feb94f98132917495147a98"),
    ("--max-n 5", "json"): (0, "68068ed2bc143eab4a8f855401b172b8fa490cd0aaa33d2414322e3ab555ac2d"),
    ("--table 10 --max-n 6", "text"): (0, "2be42a43c225cd8958d31e0d5ab8ee33892ac05f0409c2869e06f01a7c85911c"),
    ("--table 10 --max-n 6", "json"): (0, "c79215514380a358469951441ae1f3839467c960d77f5342816b592c43ad852b"),
    ("--strict --max-n 5", "text"): (1, "172c4fd363e682b3c13c9a6c53a632d5014095991feb94f98132917495147a98"),
}


def test_verify_tables_reports_keep_their_bytes_and_exit_codes(capsys):
    got = {}
    for args, fmt in VERIFY_REPORTS:
        code = main(["verify-tables", *args.split(), "--format", fmt])
        out = capsys.readouterr().out
        got[args, fmt] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == VERIFY_REPORTS
