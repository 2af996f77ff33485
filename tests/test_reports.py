"""Byte-level pins on the classification reports.

Every ``classify`` report for the four kinds at p = 2, n <= 6 and p = 3,
n <= 5, in both formats, must keep the sha256 below; a refactor of the
pipeline that changes a single byte of any report fails here.  The reports
run in-process, so the classification cache keeps the run cheap.
"""

import hashlib

from epcodes.cli import main

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
    ("mds-amds-lcd", 2, 1, "text"): "911cd5dff3033240c4c23bbc201e8942374a9064254be55786de918aa46c55e9",
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
    ("mds-amds-lcd", 3, 1, "text"): "77de97347a74557853d90d3a557e43eab6aa04cfd650f502e74451cf34181716",
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
    ("left-self-dual", 2, 2, "text"): "684c86071b775d6fb87f6419fb90f3c9966f59f9a14ac33d543bee2f018d606f",
    ("left-self-dual", 2, 2, "json"): "25cd2d4e6122ae9687758b8aeebe4ce72ff911a0f5fba758df7b1e185d80801e",
    ("left-self-dual", 2, 3, "text"): "62643cfa6ca02243d55e848824fec2808cecf4ebd63990c613f68cce8d56fd4e",
    ("left-self-dual", 2, 3, "json"): "c68b6666aadaa3d63275814223c41a69e27ef4f6b8502d3317e9c5ddb3ee91a0",
    ("left-self-dual", 2, 4, "text"): "7427cd9f6e50c8d5a0b54a3d36ab53a59ea05d49748401ada69ead6bbe8307a5",
    ("left-self-dual", 2, 4, "json"): "11f8228d08f6af4aea774bf31de5e80e60571168c8389ec856ff4707b38f6a1d",
    ("left-self-dual", 2, 5, "text"): "c6214fd93c446e3a4107c2674007d20d6f8ab1644a52ed874e3c2d7678bbcd9c",
    ("left-self-dual", 2, 5, "json"): "70cdbcf2deca021daf3f80607f95d1b00c69e02bb5d052444906b6f3974bc97e",
    ("left-self-dual", 2, 6, "text"): "b1f266147decc24166edec7dd108827e72d61076d068da6e66de17b601ed63b5",
    ("left-self-dual", 2, 6, "json"): "55d34d8b2d905f701d6267d960acf7f9c0f48c64c41363c69a880788e3e12344",
    ("left-self-dual", 3, 1, "text"): "12b7626bb62fb721dfa05ab390fd8ce2944901692914bdc11a3c6fb7b081aaaf",
    ("left-self-dual", 3, 1, "json"): "2a738a92c1f0f5cd1dc38d1f94a6c7a54c56b1a679ecde9c8e79a08097cb7731",
    ("left-self-dual", 3, 2, "text"): "2a31807a8054b953ef8dddb02c86121355231fae3daac14581327504e35447e8",
    ("left-self-dual", 3, 2, "json"): "b4293273ea8afe1ac5454721a505c771b3c5dab52c240686fd3138ebcae60bd8",
    ("left-self-dual", 3, 3, "text"): "cef7e21636ecb482a4604dd7ef31a73686219092b8453ce5ba23428331036274",
    ("left-self-dual", 3, 3, "json"): "10b8c77408a5cb2ff25734004df6aca22c70efefdad5c2c83d832b84126585af",
    ("left-self-dual", 3, 4, "text"): "950facdf1cd9fb4958891475e8b7a6a3491c1bc15ce26093adc4fdd84e0f9df1",
    ("left-self-dual", 3, 4, "json"): "37c444f0db814e98db5685ba77ed50dcfd4ba312677e329f33f2342168c826a6",
    ("left-self-dual", 3, 5, "text"): "bef208369012e810e364ff7a1ab56814a3c83d89fd74f9e20f7494604a44494a",
    ("left-self-dual", 3, 5, "json"): "99fe1a10957c567b17e85424f67bb3e4e67b1f55badfd07a9acc7655c0f4affd",
    ("self-dual", 2, 1, "text"): "a6a73ccfb23f87f06e6354138c3ddec0cc01d4de339dea0891c47cb2f699058b",
    ("self-dual", 2, 1, "json"): "f3e5a458c80e50423ea21336695866f1bac44923badadcc7ee261122bf68a21a",
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
    ("self-dual", 3, 1, "text"): "4108bd1c44072e01e17321b2a2e97d4102e34e8a77eb88d1839cc8085d2a9ccf",
    ("self-dual", 3, 1, "json"): "7fed09b875985cedd47529bb811e62910db0d870eaa5f3b620c52e711af107dd",
    ("self-dual", 3, 2, "text"): "427a6657c0c7526eb06210553d9b7086c7bdb387ba56c411f97c01afe68b8acb",
    ("self-dual", 3, 2, "json"): "92362d2ca04f1f362ad01b513394babeeb82fa6720dcdff266cc2b66904bbb5b",
    ("self-dual", 3, 3, "text"): "15068654371a7db19fe49172b0fcf8fdee938c195bdb88acff1df1bdc429837a",
    ("self-dual", 3, 3, "json"): "f1375c1e0af18363f416075861f1f24faa2fa4008d9f15debbc8b2c6b72f9139",
    ("self-dual", 3, 4, "text"): "27b47ecee5f44b5a24b01abd519ef5f1f9bcc0d7fdaac96a411750d75e8be1f3",
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
